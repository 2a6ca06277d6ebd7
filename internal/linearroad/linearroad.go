// Package linearroad implements the streaming side of the evaluation: a
// compact Linear Road-style data generator (bursty car position reports
// with drifting hot segments, our substitute for the benchmark's validated
// generator) and the paper's SegTollS query (Table 2) — a five-way windowed
// self-join over the CarLocStr stream — together with the sliding and
// partitioned window state the query's FROM clause declares. Reports arrive
// as rows (Ingest); a window holds them as columns and publishes those
// columns as its table's snapshot, so no slice transposes anything.
package linearroad

import (
	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/storage"
)

// CarLocStr column offsets.
const (
	ColTime = iota
	ColCarID
	ColSpeed
	ColExpway
	ColLane
	ColDir
	ColSeg
	ColXPos
	NumCols
)

// Window table names; each window of the SegTollS FROM clause is
// materialized as its own table so the optimizer sees per-window
// statistics.
var WindowTables = []string{"w1", "w2", "w3", "w4", "w5"}

// SegTollS is the unfolded five-way join of the paper's Table 2:
//
//	SELECT r1_expway, r1_dir, r1_seg, COUNT(DISTINCT r5_xpos)
//	FROM CarLocStr [300 s] r1, [1 tuple BY expway,dir,seg] r2,
//	     [1 tuple BY carid] r3, [30 s] r4, [4 tuples BY carid] r5
//	WHERE r2_expway=r3_expway AND r2_dir=0 AND r3_dir=0
//	  AND r2_seg < r3_seg AND r2_seg > r3_seg-10
//	  AND r3_carid=r4_carid AND r3_carid=r5_carid
//	  AND r1_expway=r2_expway AND r1_dir=r2_dir AND r1_seg=r2_seg
//	GROUP BY r2_expway, r2_dir, r2_seg
func SegTollS() *relalg.Query {
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	const (
		R1 = iota
		R2
		R3
		R4
		R5
	)
	q := &relalg.Query{
		Name: "SegTollS",
		Rels: []relalg.RelRef{
			{Alias: "r1", Table: "w1"},
			{Alias: "r2", Table: "w2"},
			{Alias: "r3", Table: "w3"},
			{Alias: "r4", Table: "w4"},
			{Alias: "r5", Table: "w5"},
		},
		Scans: []relalg.ScanPred{
			{Col: col(R2, ColDir), Op: relalg.CmpEQ, Val: 0},
			{Col: col(R3, ColDir), Op: relalg.CmpEQ, Val: 0},
		},
		Joins: []relalg.JoinPred{
			{L: col(R2, ColExpway), R: col(R3, ColExpway)}, // r2_expway = r3_expway
			{L: col(R3, ColCarID), R: col(R4, ColCarID)},   // r3_carid = r4_carid
			{L: col(R3, ColCarID), R: col(R5, ColCarID)},   // r3_carid = r5_carid
			{L: col(R1, ColExpway), R: col(R2, ColExpway)}, // r1_expway = r2_expway
			{L: col(R1, ColDir), R: col(R2, ColDir)},       // r1_dir = r2_dir
			{L: col(R1, ColSeg), R: col(R2, ColSeg)},       // r1_seg = r2_seg
		},
		Filters: []relalg.FilterPred{
			{L: col(R2, ColSeg), R: col(R3, ColSeg), Op: relalg.CmpLT, Sel: 0.5},           // r2_seg < r3_seg
			{L: col(R2, ColSeg), R: col(R3, ColSeg), Op: relalg.CmpGT, Off: -10, Sel: 0.3}, // r2_seg > r3_seg - 10
		},
		Agg: &relalg.AggSpec{
			GroupBy:       []relalg.ColID{col(R2, ColExpway), col(R2, ColDir), col(R2, ColSeg)},
			CountDistinct: []relalg.ColID{col(R5, ColXPos)},
		},
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// Windows maintains the five window states of SegTollS over the raw stream:
// two time-sliding windows (300 s and 30 s) and three partitioned last-N
// windows. Ingest applies a batch of reports; Materialize publishes current
// window contents as the catalog tables' snapshots and re-dates their
// statistics — the state-migration substitute described in internal/aqp's
// package doc (window state is the shared state carried across plan
// switches, as in CAPS).
type Windows struct {
	cat *catalog.Catalog

	w1 *timeWindow // 300 s
	w2 *lastN      // 1 per (expway,dir,seg)
	w3 *lastN      // 1 per carid
	w4 *timeWindow // 30 s
	w5 *lastN      // 4 per carid
}

// NewWindows creates empty windows and their backing catalog with the
// scaled default spans (60 s / 30 s). The paper's Table 2 declares a 300 s
// window for r1; at our report rates and with full per-slice re-execution
// (internal/aqp's state-migration substitute) that span makes every
// slice join hundreds of thousands of rows, so the evaluation scales it to
// 60 s — the adaptivity behaviour (drifting selectivities between slices)
// is unchanged. Use NewWindowsSpans(300, 30) for the literal benchmark
// spans.
func NewWindows() *Windows { return NewWindowsSpans(60, 30) }

// NewWindowsSpans creates windows with explicit w1/w4 time spans.
func NewWindowsSpans(w1Span, w4Span int64) *Windows {
	cat := catalog.New()
	cols := []string{"time", "carid", "speed", "expway", "lane", "dir", "seg", "xpos"}
	for _, name := range WindowTables {
		t := catalog.NewTable(name, cols...)
		t.AddIndex("carid")
		t.AddIndex("expway")
		cat.Add(t)
	}
	return &Windows{
		cat: cat,
		w1:  &timeWindow{span: w1Span},
		w2:  &lastN{n: 1, key: func(r []int64) int64 { return r[ColExpway]<<20 | r[ColDir]<<16 | r[ColSeg] }},
		w3:  &lastN{n: 1, key: func(r []int64) int64 { return r[ColCarID] }},
		w4:  &timeWindow{span: w4Span},
		w5:  &lastN{n: 4, key: func(r []int64) int64 { return r[ColCarID] }},
	}
}

// Catalog returns the window-backed catalog (tables w1..w5).
func (w *Windows) Catalog() *catalog.Catalog { return w.cat }

// Ingest applies a batch of reports in timestamp order.
func (w *Windows) Ingest(rows [][]int64) {
	for _, r := range rows {
		w.w1.add(r)
		w.w2.add(r)
		w.w3.add(r)
		w.w4.add(r)
		w.w5.add(r)
	}
}

// Materialize publishes the window contents as the catalog tables' column
// snapshots — the one representation the executor and the statistics read —
// and re-dates their statistics (O(1): a histogram is built only if a
// planner asks for that column).
func (w *Windows) Materialize() {
	snaps := []*storage.Snapshot{w.w1.snapshot(), w.w2.snapshot(), w.w3.snapshot(), w.w4.snapshot(), w.w5.snapshot()}
	for i, name := range WindowTables {
		t := w.cat.MustTable(name)
		t.ResetSnapshot(snaps[i])
		t.Analyze(16)
	}
}

// Data is vestigial: it returns nil and nothing consults it. The executor
// reads the snapshots Materialize published. It stays only because
// benchmarks/stream.go passes it to aqp.Controller.RunSlice and that module
// is frozen for every PR but a benchmark one; the follow-up benchmark PR
// that stops passing it deletes this method and RunSlice's parameter.
//
// Reached by: benchmarks/stream.go, which passes it to RunSlice uncalled.
func (w *Windows) Data(rel int) [][]int64 { return nil }

// timeWindow keeps rows whose timestamp is within span of the newest, as
// columns: live rows are [start, len). A row is only ever appended past every
// published snapshot and expiry only moves start, so published columns are
// never written again; growth copies the live rows into fresh arrays, which
// is also when the expired prefix is dropped.
type timeWindow struct {
	span  int64
	cols  [NumCols][]int64
	start int
}

func (tw *timeWindow) add(r []int64) {
	if n := len(tw.cols[0]); n == cap(tw.cols[0]) {
		for c, col := range tw.cols {
			tw.cols[c] = append(make([]int64, 0, max(2*(n-tw.start), 64)), col[tw.start:]...)
		}
		tw.start = 0
	}
	for c := range tw.cols {
		tw.cols[c] = append(tw.cols[c], r[c])
	}
	// Terminates at the row just added: span is positive.
	for tw.cols[ColTime][tw.start] <= r[ColTime]-tw.span {
		tw.start++
	}
}

// snapshot is the window's content, zero-copy.
func (tw *timeWindow) snapshot() *storage.Snapshot {
	snap := &storage.Snapshot{Cols: make([][]int64, NumCols), N: len(tw.cols[0]) - tw.start}
	for c, col := range tw.cols {
		snap.Cols[c] = col[tw.start:]
	}
	return snap
}

// lastN keeps the most recent n rows per key in dense, slot-addressed
// columns: a key owns up to n slots, oldest row first, and once it is full a
// new row shifts its older ones down in place.
type lastN struct {
	n    int
	key  func([]int64) int64
	cols [NumCols][]int64
	byK  map[int64][]int // the slots a key owns, in order of acquisition
}

func (l *lastN) add(r []int64) {
	if l.byK == nil {
		l.byK = map[int64][]int{}
	}
	k := l.key(r)
	slots := l.byK[k]
	if len(slots) < l.n {
		l.byK[k] = append(slots, len(l.cols[0]))
		for c := range l.cols {
			l.cols[c] = append(l.cols[c], r[c])
		}
		return
	}
	for c := range l.cols {
		col := l.cols[c]
		for i := 1; i < len(slots); i++ {
			col[slots[i-1]] = col[slots[i]]
		}
		col[slots[len(slots)-1]] = r[c]
	}
}

// snapshot copies the window's content out (slots are rewritten in place, so
// a published snapshot cannot share them): one copy per column.
func (l *lastN) snapshot() *storage.Snapshot {
	n := len(l.cols[0])
	snap := &storage.Snapshot{Cols: make([][]int64, NumCols), N: n}
	flat := make([]int64, NumCols*n)
	for c, col := range l.cols {
		snap.Cols[c] = flat[c*n : (c+1)*n]
		copy(snap.Cols[c], col)
	}
	return snap
}

// Gen produces the synthetic stream: cars on expressways reporting
// positions each second. Burstiness and drift come from a moving "hot"
// region that concentrates a varying fraction of cars on a few segments,
// so different stream slices prefer different join orders — the property
// the adaptive experiments need.
type Gen struct {
	r       *stats.Rand
	numCars int
	cars    []carState
}

type carState struct {
	expway, dir, seg, xpos int64
}

// NewGen creates a generator with the given car population.
func NewGen(seed uint64, numCars int) *Gen {
	g := &Gen{r: stats.NewRand(seed), numCars: numCars}
	g.cars = make([]carState, numCars)
	for i := range g.cars {
		g.cars[i] = carState{
			expway: g.r.Int64n(10),
			dir:    g.r.Int64n(2),
			seg:    g.r.Int64n(100),
			xpos:   g.r.Int64n(528000),
		}
	}
	return g
}

// Slice emits the reports for stream seconds [from, to).
func (g *Gen) Slice(from, to int64) [][]int64 {
	var out [][]int64
	for t := from; t < to; t++ {
		// The hot region drifts over time; burst phases concentrate
		// reporting on it.
		hotExpway := (t / 20) % 10
		hotSeg := (t * 3) % 100
		burst := (t/15)%3 == 0
		for i := range g.cars {
			c := &g.cars[i]
			// move
			if g.r.Intn(4) == 0 {
				c.seg = (c.seg + 1) % 100
			}
			c.xpos = (c.xpos + 50 + g.r.Int64n(100)) % 528000
			// teleport some cars toward the hot region
			if burst && g.r.Intn(3) == 0 {
				c.expway = hotExpway
				c.seg = (hotSeg + g.r.Int64n(5)) % 100
				c.dir = 0
			}
			// report with time-varying probability
			p := 8
			if burst {
				p = 5
			}
			if g.r.Intn(p) != 0 {
				continue
			}
			out = append(out, []int64{
				t, int64(i), 30 + g.r.Int64n(70),
				c.expway, g.r.Int64n(4), c.dir, c.seg, c.xpos,
			})
		}
	}
	return out
}
