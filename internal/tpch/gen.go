// Package tpch generates TPC-H-style data and defines the paper's workload
// queries (Q1, Q3S, Q5, Q5S, Q6, Q10 and the hand-built eight-way joins
// Q8Join / Q8JoinS of Table 2). Everything is integer-encoded: names and
// segments are dictionary codes, prices are cents, and dates are day
// offsets from 1992-01-01.
//
// The generator is deterministic (splitmix64-seeded) and supports a Zipf
// skew factor on foreign-key choices — the substitute for the Microsoft
// Research skewed TPC-D generator the paper uses (skew factor 0 reproduces
// the uniform TPC-H distributions, 0.5 the paper's skewed runs).
package tpch

import (
	"repro/internal/catalog"
	"repro/internal/stats"
)

// Mktsegment dictionary codes.
const (
	SegAutomobile int64 = iota
	SegBuilding
	SegFurniture
	SegHousehold
	SegMachinery
	NumSegments
)

// Returnflag dictionary codes.
const (
	FlagA int64 = iota
	FlagN
	FlagR
	NumFlags
)

// Dict returns the string-literal dictionary of the generated schema: the
// region names (r_name), market segments (c_mktsegment) and return flags
// (l_returnflag) mapped to their integer codes. It is what lets ad-hoc SQL
// like "WHERE r.r_name = 'ASIA'" resolve against the integer-encoded data —
// pass it (with Date) to sqlmini.Parse or the server options.
func Dict() map[string]int64 {
	return map[string]int64{
		// region codes follow TPC-H alphabetical order
		"AFRICA": 0, "AMERICA": 1, "ASIA": 2, "EUROPE": 3, "MIDDLE EAST": 4,
		"AUTOMOBILE": SegAutomobile, "BUILDING": SegBuilding,
		"FURNITURE": SegFurniture, "HOUSEHOLD": SegHousehold,
		"MACHINERY": SegMachinery,
		"A":         FlagA, "N": FlagN, "R": FlagR,
	}
}

// Date returns the day offset of y-m-d from 1992-01-01 (months and days
// 1-based, 30-day months — sufficient for selectivity realism).
func Date(y, m, d int) int64 {
	return int64((y-1992)*360 + (m-1)*30 + (d - 1))
}

// Config controls generation.
type Config struct {
	// ScaleFactor scales table sizes relative to TPC-H SF1 (1500000
	// orders). The evaluation uses 0.002–0.02 to keep runs laptop-sized.
	ScaleFactor float64
	// Skew is the Zipf exponent applied to foreign-key choices; 0 means
	// uniform.
	Skew float64
	// Seed drives the deterministic generator.
	Seed uint64
	// HistogramBuckets for Analyze (default catalog.DefaultHistogramBuckets).
	HistogramBuckets int
}

// DefaultConfig is the evaluation's standard configuration.
func DefaultConfig() Config {
	return Config{ScaleFactor: 0.005, Skew: 0, Seed: 42}
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.ScaleFactor)
	if n < 1 {
		n = 1
	}
	return n
}

// loader is a table being bulk-loaded: add batches generated rows into
// AppendRows (rows are how data arrives; the table keeps only columns).
type loader struct {
	*catalog.Table
	buf [][]int64
}

const loadBatchRows = 8192

func (l *loader) add(row ...int64) {
	if l.buf = append(l.buf, row); len(l.buf) == loadBatchRows {
		l.flush()
	}
}

func (l *loader) flush() {
	if err := l.AppendRows(l.buf); err != nil {
		panic(err)
	}
	l.buf = l.buf[:0]
}

// Generate builds the eight TPC-H tables with data, statistics and the
// physical design used throughout the evaluation (primary and foreign key
// indexes; orders and lineitem clustered on the order key).
func Generate(cfg Config) *catalog.Catalog {
	r := stats.NewRand(cfg.Seed)
	cat := catalog.New()
	// load registers a table and returns its loader; every loader is flushed
	// before statistics are taken.
	var loaders []*loader
	load := func(t *catalog.Table) *loader {
		cat.Add(t)
		loaders = append(loaders, &loader{Table: t})
		return loaders[len(loaders)-1]
	}

	region := load(catalog.NewTable("region", "r_regionkey", "r_name"))
	for i := 0; i < 5; i++ {
		region.add(int64(i), int64(i))
	}
	region.AddIndex("r_regionkey")

	nation := load(catalog.NewTable("nation", "n_nationkey", "n_name", "n_regionkey"))
	for i := 0; i < 25; i++ {
		nation.add(int64(i), int64(i), int64(i%5))
	}
	nation.AddIndex("n_nationkey")
	nation.AddIndex("n_regionkey")

	nSupp := cfg.n(10000)
	supplier := load(catalog.NewTable("supplier", "s_suppkey", "s_name", "s_nationkey"))
	for i := 0; i < nSupp; i++ {
		supplier.add(int64(i), int64(i), r.Int64n(25))
	}
	supplier.AddIndex("s_suppkey")
	supplier.AddIndex("s_nationkey")

	nCust := cfg.n(150000)
	customer := load(catalog.NewTable("customer", "c_custkey", "c_name", "c_mktsegment", "c_nationkey"))
	for i := 0; i < nCust; i++ {
		customer.add(int64(i), int64(i), r.Int64n(NumSegments), r.Int64n(25))
	}
	customer.AddIndex("c_custkey")
	customer.AddIndex("c_nationkey")

	nPart := cfg.n(200000)
	part := load(catalog.NewTable("part", "p_partkey", "p_name", "p_size"))
	for i := 0; i < nPart; i++ {
		part.add(int64(i), int64(i), 1+r.Int64n(50))
	}
	part.AddIndex("p_partkey")

	partsupp := load(catalog.NewTable("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty"))
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			partsupp.add(int64(i), int64((i+j*nPart/4)%nSupp), 1+r.Int64n(9999))
		}
	}
	partsupp.AddIndex("ps_partkey")
	partsupp.AddIndex("ps_suppkey")

	var custZipf, partZipf, suppZipf *stats.Zipf
	if cfg.Skew > 0 {
		custZipf = stats.NewZipf(nCust, cfg.Skew)
		partZipf = stats.NewZipf(nPart, cfg.Skew)
		suppZipf = stats.NewZipf(nSupp, cfg.Skew)
	}
	pickKey := func(n int, z *stats.Zipf) int64 {
		if z != nil {
			return int64(z.Sample(r) - 1)
		}
		return r.Int64n(int64(n))
	}

	nOrders := cfg.n(1500000)
	orders := load(catalog.NewTable("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"))
	orders.SortedBy = 0
	lineitem := load(catalog.NewTable("lineitem",
		"l_orderkey", "l_partkey", "l_suppkey", "l_shipdate", "l_quantity",
		"l_extendedprice", "l_discount", "l_returnflag", "l_linestatus"))
	lineitem.SortedBy = 0
	maxDate := Date(1998, 12, 1)
	for i := 0; i < nOrders; i++ {
		odate := r.Int64n(maxDate)
		orders.add(int64(i), pickKey(nCust, custZipf), odate, r.Int64n(3))
		lines := 1 + r.Intn(7)
		for j := 0; j < lines; j++ {
			ship := odate + 1 + r.Int64n(120)
			lineitem.add(
				int64(i),
				pickKey(nPart, partZipf),
				pickKey(nSupp, suppZipf),
				ship,
				1+r.Int64n(50),
				100+r.Int64n(100000), // cents
				r.Int64n(11),         // discount in %
				r.Int64n(NumFlags),
				r.Int64n(2),
			)
		}
	}
	orders.AddIndex("o_orderkey")
	orders.AddIndex("o_custkey")
	lineitem.AddIndex("l_orderkey")
	lineitem.AddIndex("l_partkey")
	lineitem.AddIndex("l_suppkey")

	for _, l := range loaders {
		l.flush()
	}
	cat.AnalyzeAll(cfg.HistogramBuckets)
	return cat
}
