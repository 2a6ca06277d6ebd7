package server

import (
	"fmt"
	"hash/fnv"

	"repro/internal/relalg"
)

// CanonicalKey returns q's plan-cache key, relalg.Fingerprinter.Key. The
// key is what makes the cache a cache of *prepared statements* rather than
// of SQL strings: two statements that differ only in SQL spelling — alias
// names, whitespace, predicate order, join-predicate direction — share one
// cache entry, i.e. one live incremental optimizer and one feedback history.
// FROM order is a coordinate system, not spelling (column ordinals index
// Query.Rels), so "FROM a, b" and "FROM b, a" get two entries; the second's
// initial optimization clones the first's optimizer through the maps of
// their common Shape (relalg.ShapeMaps). The plan cache renders the key
// with the Fingerprinter it then hands to the entry (planCache.resolve).
func CanonicalKey(q *relalg.Query) string { return relalg.NewFingerprinter(q).Key() }

// keyHash renders a short digest of a cache key for protocol output and
// metrics display. FNV-64: 32-bit digests collide visibly once ad-hoc
// workloads push thousands of distinct keys through metrics output.
func keyHash(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}
