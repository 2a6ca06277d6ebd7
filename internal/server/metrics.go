package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rescache"
)

// EntryMetrics is one cache entry's counters — the paper's Figure 9 story
// (repair cost vs full re-optimization cost) measured per prepared
// statement across a live workload.
type EntryMetrics struct {
	Key   string // canonical cache key
	Hash  string // short digest of Key
	Query string // display name of the first query bound to the entry

	Hits  int64 // prepares that found the entry live
	Execs int64 // executions

	FullOpts    int64         // from-scratch optimizations (1: init only)
	FullOptTime time.Duration // time spent in them
	Repairs     int64         // incremental repairs triggered by feedback
	RepairTime  time.Duration // time spent repairing
	Converged   int64         // executions whose feedback was sub-threshold
	Touched     int64         // cumulative optimizer entries touched
	WarmSeeds   int           // factors seeded from the shared store at init

	PlanVersion   uint64 // current plan generation (1 = initial plan)
	PlanSignature string // canonical structure of the current plan

	// EstErr is the entry's latest cardinality estimation error: the mean
	// |ln(actual/estimated)| over the last executed plan's counted nodes.
	// It trends to zero as feedback converges and spikes on data drift.
	EstErr float64
}

// Metrics is a consistent-enough snapshot of the server's counters. The
// totals are server-wide counters bumped at the event, so they include
// evicted entries' history and executions of statements held across an
// eviction; PerEntry covers the entries cached now, each snapshotted under
// its entry lock.
type Metrics struct {
	Sessions int64 // sessions opened
	Entries  int   // live cache entries

	Hits      int64 // prepares served from cache
	Misses    int64 // prepares that created (and optimized) an entry
	Evictions int64 // entries evicted by the LRU bound
	Execs     int64
	Compiles  int64 // operator trees compiled; Execs - Compiles reused a held one

	FullOpts    int64
	FullOptTime time.Duration
	Repairs     int64
	RepairTime  time.Duration
	Converged   int64

	// StatsKeys is the number of canonical subexpression fingerprints the
	// server-wide statistics plane has learned about; WarmSeeds counts the
	// factors it seeded into fresh entries before their first optimization.
	// Statistics outlive evicted entries, so StatsKeys only shrinks when
	// the ageing sweep reclaims fingerprints the workload stopped touching.
	StatsKeys int
	WarmSeeds int64

	// Ageing observability for the statistics plane under data drift:
	// StatsClock is the logical observation clock (total folds absorbed),
	// StatsDecays counts folds that exponentially decayed stored history,
	// StatsStale counts fingerprints currently beyond the staleness horizon
	// (recorded but no longer warm-starting), and StatsReclaimed counts
	// entries the sweep has deleted outright. All zero when ageing is off.
	StatsClock     uint64
	StatsDecays    int64
	StatsStale     int
	StatsReclaimed int64

	// ResultCache snapshots the semantic result cache (all zero when
	// Options.ResultCacheBytes is 0); ResultCacheEnabled distinguishes a
	// disabled cache from an enabled-but-untouched one.
	ResultCacheEnabled bool
	ResultCache        rescache.Metrics

	// QueueWaits counts executions that found every admission slot taken
	// and waited for one; QueueWait, ExecLatency and RepairLatency digest
	// the always-on latency histograms (admission wait and execution wall
	// time per execution, repair wall time per incremental repair).
	QueueWaits    int64
	QueueWait     obs.HistSummary
	ExecLatency   obs.HistSummary
	RepairLatency obs.HistSummary

	// The memory plane: PeakMem digests per-query peak tracked execution
	// memory in bytes (always on — tracked even without a budget), and the
	// Spill* counters accumulate grace-hash spill activity across all
	// executions under a budget. SpilledQueries counts executions that
	// spilled at all.
	PeakMem         obs.IntSummary
	SpilledQueries  int64
	SpillPartitions int64
	SpillBytes      int64
	SpillRecursions int64

	PerEntry []EntryMetrics // in entry creation order
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	entries := s.plans.list()
	m := Metrics{
		Sessions:       s.sessions.Load(),
		Entries:        len(entries),
		Hits:           s.plans.hits.Load(),
		Misses:         s.plans.misses.Load(),
		Evictions:      s.plans.evictions.Load(),
		Execs:          s.execs.Load(),
		Compiles:       s.compiles.Load(),
		FullOpts:       s.fullOpts.Load(),
		FullOptTime:    time.Duration(s.fullOptNanos.Load()),
		Repairs:        s.repairs.Load(),
		RepairTime:     time.Duration(s.repairNanos.Load()),
		Converged:      s.converged.Load(),
		StatsKeys:      s.stats.Len(),
		WarmSeeds:      s.warmSeeds.Load(),
		StatsClock:     s.stats.Clock(),
		StatsDecays:    s.stats.Decays(),
		StatsStale:     s.stats.StaleKeys(),
		StatsReclaimed: s.stats.Reclaimed(),

		ResultCacheEnabled: s.resCache.Enabled(),
		ResultCache:        s.resCache.Metrics(),

		QueueWaits:    s.queueWaits.Load(),
		QueueWait:     s.queueH.Summary(),
		ExecLatency:   s.latencyH.Summary(),
		RepairLatency: s.repairH.Summary(),

		PeakMem:         s.peakMemH.SummaryInt64(),
		SpilledQueries:  s.spilledQueries.Load(),
		SpillPartitions: s.spillPartitions.Load(),
		SpillBytes:      s.spillBytes.Load(),
		SpillRecursions: s.spillRecursions.Load(),
	}
	for _, e := range entries {
		m.PerEntry = append(m.PerEntry, e.snapshot())
	}
	return m
}

func (e *planEntry) snapshot() EntryMetrics {
	em := EntryMetrics{
		Key:    e.key,
		Hash:   e.hash,
		Query:  e.name,
		Hits:   e.hits.Load(),
		Execs:  e.execs.Load(),
		EstErr: math.Float64frombits(e.estErr.Load()),
	}
	if snap := e.cur.Load(); snap != nil {
		em.PlanVersion = snap.version
		em.PlanSignature = snap.plan.Signature()
	}
	e.mu.Lock()
	em.FullOpts = e.fullOpts
	em.FullOptTime = e.fullOptTime
	em.Repairs = e.repairs
	em.RepairTime = e.repairTime
	em.Converged = e.converged
	em.Touched = e.touched
	em.WarmSeeds = e.warmSeeds
	e.mu.Unlock()
	return em
}

// String renders the snapshot as a compact report, one line per entry.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d entries=%d hits=%d misses=%d evictions=%d execs=%d\n",
		m.Sessions, m.Entries, m.Hits, m.Misses, m.Evictions, m.Execs)
	fmt.Fprintf(&b, "full-opts=%d (%v) repairs=%d (%v) converged-execs=%d\n",
		m.FullOpts, m.FullOptTime.Round(time.Microsecond),
		m.Repairs, m.RepairTime.Round(time.Microsecond), m.Converged)
	fmt.Fprintf(&b, "latency: %s\n", m.ExecLatency)
	fmt.Fprintf(&b, "queue-wait: waited=%d %s\n", m.QueueWaits, m.QueueWait)
	fmt.Fprintf(&b, "memory: peak-bytes %s\n", m.PeakMem)
	if m.SpilledQueries > 0 {
		fmt.Fprintf(&b, "spill: queries=%d partitions=%d bytes=%d recursions=%d\n",
			m.SpilledQueries, m.SpillPartitions, m.SpillBytes, m.SpillRecursions)
	}
	if m.RepairLatency.Count > 0 {
		fmt.Fprintf(&b, "repair-latency: %s\n", m.RepairLatency)
	}
	fmt.Fprintf(&b, "stats-plane: keys=%d warm-seeds=%d clock=%d decays=%d stale=%d reclaimed=%d\n",
		m.StatsKeys, m.WarmSeeds, m.StatsClock, m.StatsDecays, m.StatsStale, m.StatsReclaimed)
	if m.ResultCacheEnabled {
		rc := m.ResultCache
		fmt.Fprintf(&b, "result-cache: entries=%d bytes=%d hits=%d misses=%d stores=%d evictions=%d invalidations=%d\n",
			rc.Entries, rc.Bytes, rc.Hits, rc.Misses, rc.Stores,
			rc.Evictions, rc.Invalidations)
	}
	for _, e := range m.PerEntry {
		fmt.Fprintf(&b, "  [%s] %-8s hits=%-3d execs=%-4d full-opt=%d/%v repairs=%d/%v converged=%d touched=%d warm=%d est-err=%.3f plan=v%d\n",
			e.Hash, e.Query, e.Hits, e.Execs,
			e.FullOpts, e.FullOptTime.Round(time.Microsecond),
			e.Repairs, e.RepairTime.Round(time.Microsecond),
			e.Converged, e.Touched, e.WarmSeeds, e.EstErr, e.PlanVersion)
	}
	return b.String()
}

// MarshalJSON renders the snapshot for machine consumption (reproserve
// -metrics-json). Durations marshal as nanosecond integers like any
// time.Duration; the two aggregate optimizer times additionally carry
// human-readable *String twins so the JSON is skimmable as-is.
func (m Metrics) MarshalJSON() ([]byte, error) {
	type alias Metrics // method-free view: avoids MarshalJSON recursion
	return json.Marshal(struct {
		alias
		FullOptTimeString string
		RepairTimeString  string
	}{alias(m), m.FullOptTime.String(), m.RepairTime.String()})
}
