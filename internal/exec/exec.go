// Package exec is a vectorized, columnar query executor. It executes the
// physical plans produced by the optimizers — table/index/segment scans with
// pushed-down selections, hash join, sort-merge join, index nested-loops
// join, sort, and hash aggregation — and collects per-operator actual output
// cardinalities (RunStats), which the adaptive layer feeds back into
// incremental re-optimization (the paper's §5.2.2 "changes based on real
// execution" and §5.4 loop).
//
// There is one engine and one way in: Compiler.CompileVec turns a plan into
// a tree of VecIterator operators, and DrainVec/CountVec run it. Operators
// exchange column-major batches — up to BatchSize rows held as one
// contiguous []int64 per column, with a selection vector for pushed-down
// predicates (batch.go). Leaf scans hand out zero-copy column windows over
// column-major base-table storage (catalog.Table.ColumnSnapshot), so a
// filtering scan reads only the columns its conditions touch.
//
// Column liveness (live.go) decides what an operator carries: its schema is
// exactly the columns read at or above it — the aggregation's inputs, the
// columns of join and filter predicates not yet applied, a node's own sort
// key — so a column dies after its last reader instead of riding to the
// root. Scans window only their live columns (selection predicates read the
// others in place), joins gather only the live columns of each side (a key
// nothing above reads is never copied), and build sides, spill partitions,
// memory charges and result-cache entries follow the same widths. A query
// without an aggregation returns every column, so there everything is live:
// that is the degenerate case of the one rule, not a second path.
//
// The hot kernels — per-operator predicate selection, vectorized
// multiplicative hashing, join result stitching via Gather, flat-table
// aggregation — are tight loops over contiguous slices dispatched once per
// batch (kernels.go, exprkernels.go, vecjoin.go, agg.go). Batch column slices
// are recycled, so consumers copy values out before the producer's next call; DrainVec and
// the operator-internal materializing drains do exactly one such copy per
// row. Under the compiler's Parallelism option there is one parallel shape
// (pipeline.go), and it is made of the serial operators: when an unbounded
// aggregating query's compiled input is a right spine of hash joins over a
// counted plain scan, a parallelPipelineOp takes the aggregation's place and
// runs P copies of that spine — scans claiming morsels off one cursor, joins
// probing tables the serial spine built once, counters and profiling shims of
// their own — each into a worker-local aggTable (agg.go, flat open
// addressing, no per-row key allocation). Partial aggregates, counters and
// spans merge once at the end, so RunStats feedback is byte-identical at any
// parallelism. The workers start and finish inside that operator's Open: the
// package has no channel, and no goroutine outlives an Open. Every other
// query — no aggregation, a memory budget, another plan shape — runs the
// serial aggregation over the same tree and returns the same rows in the same
// order.
//
// Correctness is checked against testkit.Reference, a naive evaluator of the
// logical query that shares no code with this package: result multisets and
// RunStats cardinalities must match it for every TPC-H query at every
// parallelism and for random plans of every optimizer (vec_test.go,
// exec_test.go).
package exec

// Row is one tuple. Strings and decimals are dictionary/fixed-point encoded
// by the workload generators, so the executor is integer-only.
type Row []int64
