package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relalg"
)

// TestNewEntryIsStampedBeforeItIsVisible: a plan-cache entry carries its first
// use stamp before any other goroutine can see it. One published unstamped
// reads as the least recently used of all, so a concurrent miss's eviction
// drops the statement just prepared instead of the LRU one (and the next
// prepare pays a full optimization for it). Goroutines take misses on a
// bounded cache while the test scans the entries under the read lock, as
// evictLocked does under the write lock, and fails on any entry without a
// stamp.
func TestNewEntryIsStampedBeforeItIsVisible(t *testing.T) {
	c := newPlanCache(4)
	var next atomic.Int64
	var misses sync.WaitGroup
	for g := 0; g < 4; g++ {
		misses.Add(1)
		go func() {
			defer misses.Done()
			for i := 0; i < 20000; i++ {
				c.resolve(&relalg.Query{Rels: []relalg.RelRef{{Alias: "t", Table: "t"}},
					Scans: []relalg.ScanPred{{Op: relalg.CmpLE, Val: next.Add(1)}}})
			}
		}()
	}
	var done atomic.Bool
	go func() {
		misses.Wait()
		done.Store(true)
	}()
	unstamped, scans := 0, 0
	for !done.Load() {
		c.mu.RLock()
		for _, e := range c.entries {
			if e.lastUsed.Load() == 0 {
				unstamped++
			}
		}
		c.mu.RUnlock()
		scans++
	}
	if unstamped > 0 {
		t.Fatalf("%d of %d scans found an entry without a use stamp", unstamped, scans)
	}
}
