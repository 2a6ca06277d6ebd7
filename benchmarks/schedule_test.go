package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/server"
	"repro/internal/tpch"
)

func hashOf(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, v)
	return h.Sum64()
}

// TestSchedulesFollowTheSeed: the same seed gives the same inputs, another
// seed gives others.
func TestSchedulesFollowTheSeed(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.0005, Seed: 1})
	schedules := map[string]func(seed uint64) any{
		"reopt-storm":  func(seed uint64) any { return reoptSchedule(seed, tpch.JoinWorkload(), 500) },
		"stream-adapt": func(seed uint64) any { return streamSlices(seed, 20) },
		"serve-hot":    func(seed uint64) any { return hotSchedule(seed, 200) },
		"serve-adhoc": func(seed uint64) any {
			sqls, _, err := adhocStatements(seed, cat, 100)
			if err != nil {
				t.Fatal(err)
			}
			return sqls
		},
	}
	for name, gen := range schedules {
		a, again, b := hashOf(gen(7)), hashOf(gen(7)), hashOf(gen(8))
		if a != again {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// TestAdhocStatementsAllMiss: the generator's statements have pairwise
// distinct plan-cache keys, are three- to six-way joins, and the first
// hundred of a longer draw are the shorter draw.
func TestAdhocStatementsAllMiss(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.0005, Seed: 3})
	const n = 1000
	sqls, queries, err := adhocStatements(3, cat, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqls) != n || len(queries) != n {
		t.Fatalf("asked for %d statements, got %d / %d", n, len(sqls), len(queries))
	}
	keys := map[string]string{}
	ways := map[int]int{}
	for i, q := range queries {
		key := server.CanonicalKey(q)
		if prev, dup := keys[key]; dup {
			t.Fatalf("statements share a cache key:\n%s\n%s", prev, sqls[i])
		}
		keys[key] = sqls[i]
		ways[len(q.Rels)]++
	}
	for k := 3; k <= 6; k++ {
		if ways[k] == 0 {
			t.Errorf("no %d-way join among %d statements: %v", k, n, ways)
		}
	}
	if len(ways) != 4 {
		t.Errorf("join widths %v, want exactly 3..6", ways)
	}
}
