package bench

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// ResultCache measures the semantic result cache's spool/probe pair on the
// no-aggregation join queries (the shared join cores a multi-query workload
// re-executes): one uncached execution baseline, the first cache-enabled
// execution (which pays the spooling tee), and the warm steady state where
// probes replace the cacheable subtrees with zero-copy windows over the
// materialized results. warm-speedup is uncached / warm-probe — the ratio
// the ISSUE's ≥2x acceptance bar reads at parallelism 1.
func (e *Env) ResultCache() *Table {
	par := e.Parallelism
	if par < 1 {
		par = 1
	}
	t := &Table{
		Title: fmt.Sprintf("Semantic result cache: spool/probe vs uncached (parallelism %d)", par),
		Header: []string{"query", "cands", "uncached", "spool-first", "warm-probe",
			"warm-speedup", "cached-bytes"},
	}
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5S(), tpch.Q8JoinS()} {
		vr, err := volcano.Optimize(e.Model(q), e.Space)
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
		}
		fper := relalg.NewFingerprinter(q)
		cands := exec.BuildCacheCandidates(q, vr.Plan, fper)
		run := func(cache *rescache.Cache) {
			comp := &exec.Compiler{Q: q, Cat: e.Cat, Parallelism: e.Parallelism,
				Cache: cache, CacheCands: cands}
			v, _, err := comp.CompileVec(vr.Plan)
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
			}
			if _, err := exec.CountVec(v); err != nil {
				panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
			}
		}
		uncached := e.timeIt(func() { run(nil) })
		cache := rescache.New(256 << 20)
		spool := e.timeOnce(func() { run(cache) })
		warm := e.timeIt(func() { run(cache) })
		met := cache.Metrics()
		t.Rows = append(t.Rows, []string{
			q.Name, fmt.Sprintf("%d", len(cands)),
			uncached.String(), spool.String(), warm.String(),
			fmt.Sprintf("%.1fx", uncached.Seconds()/warm.Seconds()),
			fmt.Sprintf("%d", met.Bytes),
		})
	}
	t.Notes = append(t.Notes,
		"spool-first = first cache-enabled execution (materializes + stores the cacheable subtrees)",
		"warm-probe = steady state, cacheable subtrees served as zero-copy column windows",
		"warm-speedup = uncached / warm-probe")
	return t
}
