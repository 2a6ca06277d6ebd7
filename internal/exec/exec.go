// Package exec is a vectorized, columnar query executor. It executes the
// physical plans produced by the optimizers with one scan, one join and one
// aggregation: table and index scans filter with pushed-down selections
// (and, on a disk table, skip the segments their zone maps exclude), every
// join — hash, sort-merge or index nested-loops — runs on the hash join,
// through one compile path that builds on the left child (an index-NL join's
// inner relation is an ordinary scan below it), hash aggregation sits on
// top, and a sort enforcer compiles to its child, since nothing the executor
// runs reads an order. It records one span per scan, join and aggregation
// (RunStats): batches, rows and, in a timed execution, wall time. The rows
// are the actual output cardinalities the adaptive layer feeds back into
// incremental re-optimization (the paper's §5.2.2 "changes based on real
// execution" and §5.4 loop), and the same record renders EXPLAIN ANALYZE.
//
// There is one engine and one way in: Compiler.CompileVec turns a plan into
// a tree of VecIterator operators, and Drain runs it into a sink, as often as
// its holder likes (execRoot: a held tree rereads the tables).
//
// A held tree maintains its state under appends: every unbounded hash join
// keeps its table and the root its result — the aggregation's table
// (agg.go), a tree without one its rows (execRoot) — and where the snapshots
// its scans bind only grew since the last execution's (the same epoch, at
// least the row count the scan bound then), each scan emits the rows above
// that watermark, each join's kept table inserts what its build side
// gained and the join emits only what its output gained (vecjoin.go), and
// the root absorbs that: what was kept plus the delta, its spans counted
// from what the nodes counted before (profile.go). A result-cache entry
// (rescache.go) is kept while its catalog.Pin holds, and the subtree it
// stands for is skipped, its spans replayed.
// Operators exchange column-major batches — up to BatchSize rows held as one
// contiguous []int64 per column, with a selection vector (batch.go). Leaf
// scans hand out zero-copy windows over column-major base-table storage
// (catalog.Table.ColumnSnapshot): a filter reads only the columns it touches.
//
// Column liveness (live.go) decides what an operator carries: its schema is
// exactly the columns read at or above it — the aggregation's inputs, the
// columns of join and filter predicates not yet applied — so a column dies
// after its last reader instead of riding to the root. Scans window only their live columns (selection predicates read the
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
// are recycled, so consumers copy values out before the producer's next call;
// DrainVec and the operator-internal materializing drains do exactly one such
// copy per row.
//
// The executor is serial: one execution runs on its caller's goroutine, and
// the package starts none and has no channel. Concurrency is the serving
// layer's — concurrent queries, each on its own tree.
//
// Correctness is checked against testkit.Reference, a naive evaluator of the
// logical query that shares no code with this package: result multisets and
// RunStats cardinalities must match it for every TPC-H query and for random
// plans of every optimizer (vec_test.go, exec_test.go).
package exec

// Row is one tuple. Strings and decimals are dictionary/fixed-point encoded
// by the workload generators, so the executor is integer-only.
type Row []int64
