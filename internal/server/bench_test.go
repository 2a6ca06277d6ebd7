package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fbstore"
	"repro/internal/tpch"
)

func benchServer(b *testing.B, cat *catalog.Catalog, maxConcurrent int) *Server {
	b.Helper()
	srv, err := New(cat, Options{
		MaxConcurrent: maxConcurrent,
		Named:         tpch.Queries(),
		Dict:          tpch.Dict(),
		Date:          tpch.Date,
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkHeldJoinReopen is a Go benchmark of the executor under the
// serving layer, not the repository benchmark of BENCHMARK.json: a converged
// statement's held run executed serially, for Q1, Q6, Q3S, Q5, Q5S and
// Q10, with no table changing between executions ("steady", SF 0.02: every
// node emits an empty delta and the result is replayed) and with one order
// and its two lines appended before each — copies of the i-th order and
// line, so some pass the statement's filters — the append untimed: over catalogs
// in memory ("append-sf0.01", "append-sf0.02") and over catalogs bound to a
// directory and flushed, so orders and lineitem sit in zone-mapped segments
// with the appends in a tail after them, as in the serve-hot workload
// ("append-dir-sf0.01", "append-dir-sf0.02"). kept/op is the hash-join
// tables an execution kept, inserting what the append added, and
// maintained/op the executions that maintained their result: Q1's and Q6's
// aggregation folds the two lines, and a join statement absorbs its joins'
// deltas, whose new orders re-read the old lineitems their keys may match —
// in memory all of them, on a directory only the segments whose zone maps
// hold the new keys and the tail. The directory regime's time grows with
// the appended rows, not with the table: its two scale factors read alike.
func BenchmarkHeldJoinReopen(b *testing.B) {
	dir := b.TempDir()
	cats := map[string]*catalog.Catalog{}
	var bound []*catalog.Catalog
	defer func() {
		for _, cat := range bound {
			cat.FlushDir() // closes the stores before the directory goes
		}
	}()
	for _, name := range []string{"Q1", "Q6", "Q3S", "Q5", "Q5S", "Q10"} {
		for _, regime := range []struct {
			name    string
			sf      float64
			appends bool
			disk    bool
		}{{"steady", 0.02, false, false}, {"append-sf0.01", 0.01, true, false}, {"append-sf0.02", 0.02, true, false},
			{"append-dir-sf0.01", 0.01, true, true}, {"append-dir-sf0.02", 0.02, true, true}} {
			b.Run(name+"/"+regime.name, func(b *testing.B) {
				key := fmt.Sprintf("%v/%v", regime.sf, regime.disk)
				cat := cats[key]
				if cat == nil {
					cat = tpch.Generate(tpch.Config{ScaleFactor: regime.sf, Seed: 42, Skew: 0.5})
					if regime.disk {
						if _, err := cat.BindDir(filepath.Join(dir, key), 0); err != nil {
							b.Fatal(err)
						}
						for _, name := range cat.Names() {
							t := cat.MustTable(name)
							if err := t.Store().Flush(t.DataVersion()); err != nil {
								b.Fatal(err)
							}
						}
						bound = append(bound, cat)
					}
					cats[key] = cat
				}
				srv := benchServer(b, cat, 1)
				st, err := srv.Session().PrepareNamed(name)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 10; i++ { // past the repair phase
					res, err := st.Exec()
					if err != nil {
						b.Fatal(err)
					}
					if !res.Repaired {
						break
					}
				}
				m0 := srv.Metrics()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if regime.appends {
						b.StopTimer()
						appendOrdersFrom(b, cat, 1, i)
						b.StartTimer()
					}
					if _, err := st.Exec(); err != nil {
						b.Fatal(err)
					}
				}
				m := srv.Metrics()
				b.ReportMetric(float64(m.BuildsReused-m0.BuildsReused)/float64(b.N), "kept/op")
				b.ReportMetric(float64(m.ResultsMaintained-m0.ResultsMaintained)/float64(b.N), "maintained/op")
			})
		}
	}
}

// BenchmarkServeThroughput measures end-to-end statement service time
// through the session layer: "cold" pays the one-time from-scratch
// optimization of a cache miss plus one execution; "cached" measures the
// steady state — cache-hit prepare, execution, and the (converged, hence
// skipped) feedback repair — driven by 1, 2 and 4 concurrent sessions.
func BenchmarkServeThroughput(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv := benchServer(b, cat, 1)
			st, err := srv.Session().PrepareNamed("Q3S")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, sessions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cached/sessions=%d", sessions), func(b *testing.B) {
			srv := benchServer(b, cat, sessions)
			// Warm the entry past its repair phase.
			warm, err := srv.Session().PrepareNamed("Q3S")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := warm.Exec(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sess := srv.Session()
					for i := s; i < b.N; i += sessions {
						st, err := sess.PrepareNamed("Q3S")
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := st.Exec(); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// BenchmarkServeRowsVerb is a Go benchmark of the wire's rows verb: per op,
// one converged execution streamed over net.Pipe to a client goroutine that
// reads every line, for Q3S (19 rows at SF 0.002) and an unfiltered scan of
// two lineitem columns (every row). It reports ns/op and B/op of the round
// trip, server and client together; the row lines are written as the
// executor produces them, so B/op does not grow with the result.
func BenchmarkServeRowsVerb(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})
	for _, c := range []struct{ name, prepare string }{
		{"q3s", "query s Q3S"},
		{"scan", "prepare s SELECT l.l_orderkey, l.l_partkey FROM lineitem l"},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv := benchServer(b, cat, 1)
			server, client := net.Pipe()
			defer client.Close()
			go func() {
				_ = srv.ServeConn(server)
				server.Close()
			}()
			replies := make(chan string)
			go func() {
				sc := bufio.NewScanner(client)
				for sc.Scan() {
					if l := sc.Bytes(); !bytes.HasPrefix(l, []byte("row ")) && !bytes.HasPrefix(l, []byte("| ")) {
						replies <- string(l)
					}
				}
				close(replies)
			}()
			send := func(cmd string) {
				if _, err := io.WriteString(client, cmd+"\n"); err != nil {
					b.Fatal(err)
				}
				if r := <-replies; !strings.HasPrefix(r, "ok") {
					b.Fatalf("%s: %s", cmd, r)
				}
			}
			<-replies // the greeting
			send(c.prepare)
			for i := 0; i < 3; i++ {
				send("exec s")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send("rows s")
			}
			b.StopTimer()
			send("quit")
		})
	}
}

// BenchmarkWarmStart compares the first optimization a cache miss pays when
// the statistics plane is empty ("cold") against one seeded by a
// structurally different query's executions ("seeded"): the seeded miss
// optimizes against already-converged factors and its first executions
// skip the repair phase entirely. Measured per miss by re-creating the
// server each iteration; "seeded" shares one warmed fbstore.StatsStore.
func BenchmarkWarmStart(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})
	const warmSQL = `SELECT c.c_custkey FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'MACHINERY'`
	// Same semantics, FROM order reversed: a distinct canonical key whose
	// subexpressions all fingerprint-match the warm query's.
	const missSQL = `SELECT o2.o_custkey FROM orders o2, customer c2
		WHERE c2.c_custkey = o2.o_custkey AND c2.c_mktsegment = 'MACHINERY'`

	prepare := func(b *testing.B, store *fbstore.StatsStore) {
		b.Helper()
		srv, err := New(cat, Options{
			Stats: store, Dict: tpch.Dict(), Date: tpch.Date,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := srv.Session().Prepare(missSQL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Exec(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prepare(b, nil) // fresh private store: nothing to seed from
		}
	})

	b.Run("seeded", func(b *testing.B) {
		store := fbstore.New()
		warmSrv, err := New(cat, Options{
			Stats: store, Dict: tpch.Dict(), Date: tpch.Date,
		})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := warmSrv.Session().Prepare(warmSQL)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := warm.Exec(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prepare(b, store)
		}
	})
}

// BenchmarkResultCache measures the semantic result cache on a shared join
// core (the Q3S join shape, no aggregation): "uncached" executes the plan in
// full every time, "cold" includes the first spooling execution per server,
// and "warm" probes a populated cache — each at 1, 2 and 4 concurrent
// sessions. The warm/uncached ratio at sessions=1 is the figure the
// ISSUE's ≥2x acceptance bar reads.
func BenchmarkResultCache(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})

	newSrv := func(bytes int64) *Server {
		srv, err := New(cat, Options{
			MaxConcurrent: 4, Named: tpch.Queries(),
			Dict: tpch.Dict(), Date: tpch.Date,
			ResultCacheBytes: bytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	// Warm an entry past its repair phase (and, when caching, its spool).
	warmup := func(srv *Server) {
		b.Helper()
		st, err := srv.Session().PrepareNamed("Q3S")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := st.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	}
	drive := func(b *testing.B, srv *Server, sessions int) {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := srv.Session()
				for i := s; i < b.N; i += sessions {
					st, err := sess.PrepareNamed("Q3S")
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := st.Exec(); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}

	b.Run("cold", func(b *testing.B) {
		// Per-iteration server: every execution spools from scratch.
		for i := 0; i < b.N; i++ {
			srv := newSrv(64 << 20)
			st, err := srv.Session().PrepareNamed("Q3S")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, sessions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("uncached/sessions=%d", sessions), func(b *testing.B) {
			srv := newSrv(0)
			warmup(srv)
			b.ResetTimer()
			drive(b, srv, sessions)
		})
		b.Run(fmt.Sprintf("warm/sessions=%d", sessions), func(b *testing.B) {
			srv := newSrv(64 << 20)
			warmup(srv)
			if srv.ResultCache().Metrics().Stores == 0 {
				b.Fatal("warmup spooled nothing")
			}
			b.ResetTimer()
			drive(b, srv, sessions)
		})
	}
}
