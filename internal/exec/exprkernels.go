package exec

// Typed kernels over contiguous column slices, dispatched once per batch.
// Gather is the workhorse of join result stitching and of filtered drains.
// It is allocation-free: the caller owns dst and sizes it.

// Gather copies src values through an index vector: dst[k] = src[idx[k]]
// for k < len(idx). dst must have length >= len(idx).
func Gather(dst, src []int64, idx []int32) {
	_ = dst[:len(idx)]
	for k, i := range idx {
		dst[k] = src[i]
	}
}
