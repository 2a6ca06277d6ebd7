package exec

import "sort"

// Typed kernels over contiguous column slices, dispatched once per batch.
// Gather is the workhorse of join result stitching and the sort operator.
// It is allocation-free: the caller owns dst and sizes it.

// Gather copies src values through an index vector: dst[k] = src[idx[k]]
// for k < len(idx). dst must have length >= len(idx).
func Gather(dst, src []int64, idx []int32) {
	_ = dst[:len(idx)]
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// stableSortPerm stable-sorts a row-index permutation by key[perm[i]] — the
// comparison side of the sort operator; every data column is then moved
// once with Gather.
func stableSortPerm(perm []int32, key []int64) {
	sort.SliceStable(perm, func(i, j int) bool { return key[perm[i]] < key[perm[j]] })
}
