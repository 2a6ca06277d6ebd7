package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// The benchmark's own span recorder. The layers are traced from outside: a
// span is recorded around each call into a layer's public functions, or
// synthesized from a duration the layer reports about itself
// (core.Metrics.Elapsed, server.Result.Elapsed, aqp.SliceResult.Exec).
// Spans stay in memory and are written out when the run ends.

// span is one recorded interval. Times are nanoseconds since the recorder
// was created; Parent indexes the same client's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // schedule position the span belongs to, -1 outside ops
	Round  int    `json:"round"`
}

// spanBuf is one client goroutine's span list; a nil *spanBuf records
// nothing, so untraced runs pay a nil check per call.
type spanBuf struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	round int
}

// recorder owns one spanBuf per client so recording never locks.
type recorder struct {
	t0   time.Time
	bufs []*spanBuf
}

func newRecorder(clients int) *recorder {
	r := &recorder{t0: time.Now(), bufs: make([]*spanBuf, clients)}
	for i := range r.bufs {
		r.bufs[i] = &spanBuf{t0: r.t0, op: -1}
	}
	return r
}

// client returns client c's buffer, or nil when r is nil (tracing off).
func (r *recorder) client(c int) *spanBuf {
	if r == nil {
		return nil
	}
	return r.bufs[c]
}

// at labels the spans that follow with their round and schedule position.
func (b *spanBuf) at(round, op int) {
	if b != nil {
		b.round, b.op = round, op
	}
}

// begin opens a span as a child of the innermost open one.
func (b *spanBuf) begin(name string) {
	if b == nil {
		return
	}
	parent := -1
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	b.stack = append(b.stack, len(b.spans))
	b.spans = append(b.spans, span{Name: name, Start: int64(time.Since(b.t0)),
		Parent: parent, Op: b.op, Round: b.round})
}

// end closes the innermost open span.
func (b *spanBuf) end() {
	if b == nil {
		return
	}
	n := len(b.stack) - 1
	b.spans[b.stack[n]].End = int64(time.Since(b.t0))
	b.stack = b.stack[:n]
}

// child records an already-finished interval of length d as a child of the
// innermost open span, ending now — how a duration a layer reports about
// itself becomes a span.
func (b *spanBuf) child(name string, d time.Duration) {
	if b == nil {
		return
	}
	parent := -1
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	end := int64(time.Since(b.t0))
	b.spans = append(b.spans, span{Name: name, Start: end - int64(d), End: end,
		Parent: parent, Op: b.op, Round: b.round})
}

// eachSelf calls fn with every span and its self time: the span's duration
// minus the part its children cover.
func (r *recorder) eachSelf(fn func(s *span, self time.Duration)) {
	for _, b := range r.bufs {
		covered := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.Parent >= 0 {
				covered[s.Parent] += s.End - s.Start
			}
		}
		for i := range b.spans {
			s := &b.spans[i]
			d := s.End - s.Start - covered[i]
			if d < 0 {
				d = 0 // a synthesized child may overhang its parent by clock skew
			}
			fn(s, time.Duration(d))
		}
	}
}

// durations returns every span of the given name, in milliseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, b := range r.bufs {
		for _, s := range b.spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return out
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// asideLayers are span-name prefixes that stand outside the account of where
// an op's time goes: "client" is the op as its caller sees it (for a wire op
// the whole round trip, whose inside the re-enactment spans account for) and
// "shadow" is serve-adhoc's second, in-server account of the same miss.
var asideLayers = map[string]bool{"client": true, "shadow": true}

// layerShares turns self times into each layer's percentage of the self
// time recorded inside ops (spans with Op >= 0; set-up and between-round
// spans are left out, and so are the asideLayers).
func (r *recorder) layerShares() map[string]float64 {
	byLayer := map[string]float64{}
	var total float64
	r.eachSelf(func(s *span, d time.Duration) {
		if s.Op >= 0 && !asideLayers[layerOf(s.Name)] {
			byLayer[layerOf(s.Name)] += float64(d)
			total += float64(d)
		}
	})
	for k := range byLayer {
		byLayer[k] *= 100 / total
	}
	return byLayer
}

// write dumps the spans as JSON: one object per client.
func (r *recorder) write(path string) error {
	type clientSpans struct {
		Client int    `json:"client"`
		Spans  []span `json:"spans"`
	}
	out := make([]clientSpans, len(r.bufs))
	for i, b := range r.bufs {
		out[i] = clientSpans{Client: i, Spans: b.spans}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
