package fbstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// populated builds a store with a few keys in distinct states: folded only,
// folded+factored, aged.
func populated(t *testing.T, opts Options) *StatsStore {
	t.Helper()
	s := NewWithOptions(opts)
	s.Fold("join:a*b", 120, true)
	s.Fold("join:a*b", 80, true)
	s.SetFactor("join:a*b", 2.5)
	s.Fold("scan:a", 40, true)
	s.Fold("scan:b", 7, false)
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := populated(t, Options{DecayHalfLife: 4, StaleAfter: 100})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewWithOptions(Options{DecayHalfLife: 4, StaleAfter: 100})
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Clock() != src.Clock() {
		t.Fatalf("clock %d did not survive the round trip (got %d)", src.Clock(), dst.Clock())
	}
	if !sameStore(t, src, dst) {
		t.Fatalf("snapshot round trip diverged:\nsrc %+v\ndst %+v", src.Snapshot(), dst.Snapshot())
	}
	// Behavioral equivalence, not just structural: the next fold lands on
	// identical state, so both stores answer identically forever after.
	if a, b := src.Fold("join:a*b", 100, true), dst.Fold("join:a*b", 100, true); a != b {
		t.Fatalf("post-load fold diverged: src %v, dst %v", a, b)
	}
	if fa, oa := src.Factor("join:a*b"); true {
		if fb, ob := dst.Factor("join:a*b"); fa != fb || oa != ob {
			t.Fatalf("post-load factor diverged: src %v,%v dst %v,%v", fa, oa, fb, ob)
		}
	}
}

// TestLoadsSnapshotWithLastSeen: a version-1 snapshot written before entries
// stopped recording the wall-clock time of their last observation (it carries
// last_seen_unix_nano) still loads, and every value it holds survives
// bit-identically: saving the loaded store reproduces the fixture minus that
// field.
func TestLoadsSnapshotWithLastSeen(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.Load(bytes.NewReader(fixture)); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) map[string]any {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber() // compare numbers as the text the encoder wrote
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	want := decode(fixture)
	stats := want["stats"].([]any)
	for _, e := range stats {
		delete(e.(map[string]any), "last_seen_unix_nano")
	}
	if len(stats) == 0 {
		t.Fatal("fixture holds no entries")
	}
	if got := decode(saved.Bytes()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded snapshot differs from the fixture:\ngot  %v\nwant %v", got, want)
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := populated(t, Options{})
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two saves of a quiescent store differ")
	}
}

// TestLoadRejects: every malformed snapshot is rejected, and rejection
// leaves the store untouched.
func TestLoadRejects(t *testing.T) {
	good := func() string {
		var buf bytes.Buffer
		if err := populated(t, Options{}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	cases := []struct {
		name, doc string
	}{
		{"garbage", "not json at all"},
		{"truncated", good[:len(good)/2]},
		{"future-version", strings.Replace(good, fmt.Sprintf(`"version":%d`, codecVersion), `"version":99`, 1)},
		{"empty-key", `{"version":1,"clock":1,"stats":[{"key":"","obs_n":1}]}`},
		{"duplicate-key", `{"version":1,"clock":1,"stats":[{"key":"k","obs_n":1},{"key":"k","obs_n":2}]}`},
		{"negative-count", `{"version":1,"clock":1,"stats":[{"key":"k","obs_n":-3}]}`},
		{"negative-sum", `{"version":1,"clock":1,"stats":[{"key":"k","obs_sum":-5,"obs_n":1}]}`},
		{"zero-applied-factor", `{"version":1,"clock":1,"stats":[{"key":"k","obs_n":1,"factor":0,"applied":true}]}`},
		{"negative-applied-factor", `{"version":1,"clock":1,"stats":[{"key":"k","obs_n":1,"factor":-2,"applied":true}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := populated(t, Options{})
			before := s.Snapshot()
			if err := s.Load(strings.NewReader(tc.doc)); err == nil {
				t.Fatal("malformed snapshot loaded without error")
			}
			if !reflect.DeepEqual(before, s.Snapshot()) {
				t.Fatal("failed load mutated the store")
			}
		})
	}
}

// TestLoadClampsFutureTicks: an entry stamped after the snapshot clock
// (corruption or a racing writer) is clamped rather than living in the
// future, where it would never age.
func TestLoadClampsFutureTicks(t *testing.T) {
	s := New()
	doc := `{"version":1,"clock":10,"stats":[{"key":"k","obs_sum":5,"obs_n":1,"tick":99}]}`
	if err := s.Load(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for _, sn := range s.Snapshot() {
		if sn.Key == "k" && sn.Tick > 10 {
			t.Fatalf("tick %d not clamped to clock 10", sn.Tick)
		}
	}
}

func TestSaveFileAtomicRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	src := populated(t, Options{})
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Rotate over the previous snapshot: the new content fully replaces it.
	src.Fold("scan:new", 9, true)
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temporary files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "stats.json" {
		t.Fatalf("directory not clean after rotation: %v", ents)
	}

	dst := New()
	if err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !sameStore(t, src, dst) {
		t.Fatal("rotated file did not round-trip the store")
	}
}

// sameStore compares two stores by their serialized form: bit-exact sums,
// counts, factors, ticks and timestamps, without tripping over the
// monotonic-clock component reflect.DeepEqual sees in live time.Time values.
func sameStore(t *testing.T, a, b *StatsStore) bool {
	t.Helper()
	var ab, bb bytes.Buffer
	if err := a.Save(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	return ab.String() == bb.String()
}

func TestLoadFileMissingIsNotExist(t *testing.T) {
	err := New().LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot error = %v, want os.ErrNotExist", err)
	}
}
