package fbstore

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// This file is the snapshot codec: the statistics plane serialized as one
// versioned JSON document so a server restart resumes with everything the
// workload had learned. The logical observation clock is part of the
// snapshot — ageing continues across restarts exactly where it stopped,
// instead of every reloaded entry looking freshly observed.
//
// The format is versioned and strict: Load rejects unknown versions and
// non-finite numbers rather than silently admitting state a newer (or
// corrupted) writer produced. Loading replaces the store's contents
// wholesale; it is a boot-time operation, not a merge.

// codecVersion identifies the snapshot format. Bump it when the entry
// schema changes incompatibly.
const codecVersion = 1

// snapshotDoc is the on-disk document.
type snapshotDoc struct {
	Version int         `json:"version"`
	Clock   uint64      `json:"clock"`
	Stats   []statEntry `json:"stats"`
}

// statEntry is one fingerprint's serialized state.
type statEntry struct {
	Key     string  `json:"key"`
	ObsSum  float64 `json:"obs_sum"`
	ObsN    float64 `json:"obs_n"`
	LastObs float64 `json:"last_obs"`
	Tick    uint64  `json:"tick"`
	Factor  float64 `json:"factor"`
	Applied bool    `json:"applied"`
}

// Save writes a versioned snapshot of the whole store. The output is
// deterministic for a quiescent store (entries sorted by key), so snapshots
// diff and hash cleanly. Concurrent folds during a save are safe; each entry
// is copied under its own lock. The raw cumulative sums are serialized
// bit-exactly (not reconstructed from the average), so a loaded store is
// numerically indistinguishable from the one that saved it.
func (s *StatsStore) Save(w io.Writer) error {
	doc := snapshotDoc{Version: codecVersion, Clock: s.clock.Load()}
	s.mu.RLock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	stats := make([]*stat, len(keys))
	for i, k := range keys {
		stats[i] = s.m[k]
	}
	s.mu.RUnlock()
	for i, e := range stats {
		e.mu.Lock()
		doc.Stats = append(doc.Stats, statEntry{
			Key:     keys[i],
			ObsSum:  e.obsSum,
			ObsN:    e.obsN,
			LastObs: e.lastObs,
			Tick:    e.tick,
			Factor:  e.factor,
			Applied: e.hasFac,
		})
		e.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("fbstore: save: %w", err)
	}
	return nil
}

// Load replaces the store's contents (and logical clock) with a snapshot
// previously written by Save. It validates the codec version and every
// number before touching the store, so a failed load leaves the store
// unchanged. Ageing options are NOT part of the snapshot: they belong to
// the receiving store, so an operator can turn decay on (or change the
// half-life) across a restart and the reloaded history ages under the new
// policy.
func (s *StatsStore) Load(r io.Reader) error {
	var doc snapshotDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("fbstore: load: %w", err)
	}
	if doc.Version != codecVersion {
		return fmt.Errorf("fbstore: load: snapshot version %d, this build reads %d", doc.Version, codecVersion)
	}
	m := make(map[string]*stat, len(doc.Stats))
	for i, se := range doc.Stats {
		if se.Key == "" {
			return fmt.Errorf("fbstore: load: entry %d has an empty key", i)
		}
		if _, dup := m[se.Key]; dup {
			return fmt.Errorf("fbstore: load: duplicate key %q", se.Key)
		}
		for _, v := range [...]float64{se.ObsSum, se.ObsN, se.LastObs, se.Factor} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fbstore: load: key %q has a non-finite value", se.Key)
			}
		}
		if se.ObsN < 0 || se.ObsSum < 0 {
			return fmt.Errorf("fbstore: load: key %q has negative observation state (sum=%v n=%v)", se.Key, se.ObsSum, se.ObsN)
		}
		// Applied factors are clamped positive at calibration time; a zero
		// or negative one warm-starts NaN/negative cardinalities into cost
		// models, so it can only be corruption.
		if se.Applied && se.Factor <= 0 {
			return fmt.Errorf("fbstore: load: key %q has non-positive applied factor %v", se.Key, se.Factor)
		}
		tick := se.Tick
		if tick > doc.Clock { // entry from the future: clamp to the clock
			tick = doc.Clock
		}
		m[se.Key] = &stat{
			obsSum:  se.ObsSum,
			obsN:    se.ObsN,
			lastObs: se.LastObs,
			tick:    tick,
			factor:  se.Factor,
			hasFac:  se.Applied,
		}
	}
	s.mu.Lock()
	s.m = m
	s.lastSweep = doc.Clock
	s.mu.Unlock()
	s.clock.Store(doc.Clock)
	return nil
}

// SaveFile atomically replaces path with a snapshot of the store: the
// document is written to a temporary file in the same directory, synced,
// and rotated into place with rename, so a crash mid-save leaves the
// previous snapshot intact and a reader never observes a torn file.
func (s *StatsStore) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fbstore: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fbstore: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fbstore: save %s: %w", path, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("fbstore: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("fbstore: save %s: %w", path, err)
	}
	return nil
}

// LoadFile loads a snapshot from path. A missing file is reported with an
// error wrapping os.ErrNotExist, which callers treat as a cold boot.
func (s *StatsStore) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fbstore: load %s: %w", path, err)
	}
	defer f.Close()
	return s.Load(f)
}
