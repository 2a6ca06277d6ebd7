package server

import (
	"bytes"
	"testing"

	"repro/internal/fbstore"
)

// execNamed prepares name and executes it n times, failing the test on any
// error; it returns the prepared statement.
func execNamed(t *testing.T, srv *Server, name string, n int) *Stmt {
	t.Helper()
	st, err := srv.Session().PrepareNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// execSQL is execNamed for ad-hoc SQL.
func execSQL(t *testing.T, srv *Server, sql string, n int) *Stmt {
	t.Helper()
	st, err := srv.Session().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSnapshotDifferentialRepairs is the persistence differential: a fresh
// server over a Load-ed copy of the statistics plane must walk the exact
// same repair trajectory as a fresh server over the live store that
// produced the snapshot. If the codec drops or rounds anything the
// calibrators consume, the two runs diverge in repair counts, warm seeds,
// or convergence — so equality here means the snapshot round trip is
// behavior-preserving, not merely structure-preserving.
func TestSnapshotDifferentialRepairs(t *testing.T) {
	workload := func(srv *Server) Metrics {
		execSQL(t, srv, statsQueryA, 4)
		execSQL(t, srv, statsQueryB, 3)
		execNamed(t, srv, "Q3S", 3)
		return srv.Metrics()
	}

	// Producer: learn from scratch, then snapshot the plane.
	producer := testServer(t, Options{})
	prodM := workload(producer)
	if prodM.Repairs == 0 {
		t.Fatal("producer never repaired; the workload teaches nothing")
	}
	var snap bytes.Buffer
	if err := producer.Stats().Save(&snap); err != nil {
		t.Fatal(err)
	}

	// Twins: fresh servers, one on the live store, one on the loaded copy.
	loaded := fbstore.New()
	if err := loaded.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	live := testServer(t, Options{Stats: producer.Stats()})
	disk := testServer(t, Options{Stats: loaded})
	liveM, diskM := workload(live), workload(disk)

	if len(liveM.PerEntry) != len(diskM.PerEntry) {
		t.Fatalf("entry counts diverged: live %d, disk %d", len(liveM.PerEntry), len(diskM.PerEntry))
	}
	for i, le := range liveM.PerEntry {
		de := diskM.PerEntry[i]
		if le.Key != de.Key {
			t.Fatalf("entry order diverged: %s vs %s", le.Hash, de.Hash)
		}
		if le.Repairs != de.Repairs || le.FullOpts != de.FullOpts ||
			le.Converged != de.Converged || le.WarmSeeds != de.WarmSeeds ||
			le.PlanVersion != de.PlanVersion {
			t.Errorf("entry %s diverged across the snapshot round trip:\nlive %+v\ndisk %+v",
				le.Hash, le, de)
		}
		if le.WarmSeeds == 0 {
			t.Errorf("entry %s not warm-started from the producer's statistics", le.Hash)
		}
	}
	// Both twins learned from converged statistics: strictly fewer repairs
	// than the producer's cold learning curve.
	if liveM.Repairs >= prodM.Repairs || diskM.Repairs != liveM.Repairs {
		t.Fatalf("repair totals: producer %d, live twin %d, disk twin %d — want twins equal and below producer",
			prodM.Repairs, liveM.Repairs, diskM.Repairs)
	}
}

// TestEvictionAgeingTable drives MaxEntries eviction (a bound of one entry
// in every row) with observation ageing on, through the regimes that matter
// under drift: hot statistics must survive evict/re-admit churn (decay alone never forgets
// an actively observed fingerprint), while statistics the workload stopped
// touching go stale — no longer warm-starting — and are eventually
// reclaimed from the plane entirely.
func TestEvictionAgeingTable(t *testing.T) {
	const stale = 10
	cases := []struct {
		name   string
		ageing fbstore.Options
		// run returns the statement whose cache entry is inspected.
		run          func(t *testing.T, srv *Server) *Stmt
		wantWarm     bool // re-admitted entry warm-started
		wantRepairs  bool // re-admitted entry repaired again (relearning)
		wantReclaims bool // plane reclaimed stale fingerprints
	}{
		{
			// LRU churn with decay on: A converges, B evicts A, A re-admits
			// warm with zero repairs — eviction still never forgets.
			name:   "lru-churn/hot-retained",
			ageing: fbstore.Options{DecayHalfLife: 50},
			run: func(t *testing.T, srv *Server) *Stmt {
				execSQL(t, srv, statsQueryA, 3)
				execSQL(t, srv, statsQueryB, 1)
				return execSQL(t, srv, statsQueryA, 2)
			},
			wantWarm: true,
		},
		{
			// Repeated evict/re-admit cycles with both ageing knobs on: the
			// entry stays hot throughout, so every re-admission warm-starts.
			name:   "evict-readmit-cycles/hot-retained",
			ageing: fbstore.Options{DecayHalfLife: 30, StaleAfter: 500},
			run: func(t *testing.T, srv *Server) *Stmt {
				execSQL(t, srv, statsQueryA, 3)
				for i := 0; i < 3; i++ {
					execSQL(t, srv, statsQueryB, 1)
					execSQL(t, srv, statsQueryA, 1)
				}
				return execSQL(t, srv, statsQueryA, 1)
			},
			wantWarm: true,
		},
		{
			// The workload abandons A: disjoint lineitem traffic (Q1/Q6)
			// advances the observation clock far past the horizon, A's
			// fingerprints go stale and are reclaimed, and a re-admitted A
			// starts cold and relearns.
			name:   "abandoned/stale-reclaimed",
			ageing: fbstore.Options{StaleAfter: stale},
			run: func(t *testing.T, srv *Server) *Stmt {
				execSQL(t, srv, statsQueryA, 3)
				execNamed(t, srv, "Q1", 15)
				execNamed(t, srv, "Q6", 15)
				srv.Stats().Sweep()
				return execSQL(t, srv, statsQueryA, 3)
			},
			wantWarm:     false,
			wantRepairs:  true,
			wantReclaims: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t, Options{MaxEntries: 1, Stats: fbstore.NewWithOptions(tc.ageing)})
			st := tc.run(t, srv)
			m := srv.Metrics()
			repairs, warm, fullOpts := repairsOf(m, st.CacheKey())
			if fullOpts != 1 {
				t.Errorf("re-admitted entry full-opts=%d, want 1", fullOpts)
			}
			if (warm > 0) != tc.wantWarm {
				t.Errorf("warm seeds = %d, want warm=%v", warm, tc.wantWarm)
			}
			if (repairs > 0) != tc.wantRepairs {
				t.Errorf("repairs = %d, want repairs=%v", repairs, tc.wantRepairs)
			}
			if (m.StatsReclaimed > 0) != tc.wantReclaims {
				t.Errorf("reclaimed = %d, want reclaims=%v", m.StatsReclaimed, tc.wantReclaims)
			}
			if m.Evictions == 0 {
				t.Error("scenario produced no evictions; the table row tests nothing")
			}
			if tc.ageing.DecayHalfLife > 0 && m.StatsDecays == 0 {
				t.Error("decay enabled but no fold ever decayed")
			}
		})
	}
}
