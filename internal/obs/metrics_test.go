package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRegistrySnapshotSortedAndExact(t *testing.T) {
	r := NewRegistry()
	r.Count("z.last", 2)
	r.Count("a.first", 1)
	r.Count("a.first", 4)
	r.Gauge("g.x", 9)
	r.Gauge("g.x", 3) // latest wins
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[0].Value != 5 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if s.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 2, 3, 4, 100, -5} {
		r.Observe("h", v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 6 || h.Sum != 110 || h.Min != 0 || h.Max != 100 {
		t.Fatalf("summary: %+v", h)
	}
	if h.Mean != 110/6 {
		t.Fatalf("mean = %d", h.Mean)
	}
	// p50 is a bucket upper bound: the true median is 2–3, so the bound
	// must sit in [2, 4) scaled by the 2x bucket width — i.e. ≤ 7 and ≥ 2.
	if h.P50 < 2 || h.P50 > 7 {
		t.Fatalf("p50 = %d out of log-bucket range", h.P50)
	}
	// p95 lands in the top sample's bucket, clamped to max.
	if h.P95 != 100 {
		t.Fatalf("p95 = %d, want clamped max 100", h.P95)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	r := NewRegistry()
	r.Observe("h", 42)
	h := r.Snapshot().Histograms[0]
	if h.Min != 42 || h.Max != 42 || h.P50 != 42 || h.P95 != 42 || h.Mean != 42 {
		t.Fatalf("single-sample summary: %+v", h)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		// Insertion order differs between the two builds; output must not.
		r.Count("b", 1)
		r.Count("a", 2)
		r.Observe("lat", 10)
		r.Observe("lat", 20)
		r.Gauge("g", 5)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	build2 := func() []byte {
		r := NewRegistry()
		r.Gauge("g", 5)
		r.Observe("lat", 10)
		r.Count("a", 2)
		r.Count("b", 1)
		r.Observe("lat", 20)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(), build2(); string(a) != string(b) {
		t.Fatalf("snapshot JSON depends on insertion order:\n%s\n%s", a, b)
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Count("c", 1)
	r.Gauge("g", 2)
	r.Observe("h", 3)
	out := r.Snapshot().String()
	for _, want := range []string{"counter", "gauge", "hist", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot string missing %q:\n%s", want, out)
		}
	}
}

func TestCounterDirectLookup(t *testing.T) {
	r := NewRegistry()
	if got := r.Counter("absent"); got != 0 {
		t.Fatalf("Counter(absent) = %d, want 0", got)
	}
	r.Count("mr.queue.admitted", 3)
	r.Count("mr.queue.admitted", 4)
	r.Count("other", 1)
	if got := r.Counter("mr.queue.admitted"); got != 7 {
		t.Fatalf("Counter = %d, want 7", got)
	}
	// Agrees with the full snapshot.
	for _, c := range r.Snapshot().Counters {
		if c.Name == "mr.queue.admitted" && c.Value != r.Counter(c.Name) {
			t.Fatalf("Counter %d != Snapshot %d", r.Counter(c.Name), c.Value)
		}
	}
	// Nil registry: disabled, returns zero.
	var nilReg *Registry
	if got := nilReg.Counter("anything"); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
}

// TestAddHistogramMatchesObserve checks that publishing task-local
// histograms is indistinguishable from observing every sample in the
// registry directly: same buckets, count, sum, min and max.
func TestAddHistogramMatchesObserve(t *testing.T) {
	samples := [][]int64{{5, 900, 3, -2}, {}, {70000, 1, 1}, {64, 65, 1 << 40}}
	direct, merged := NewRegistry(), NewRegistry()
	merged.Observe("h", 17) // a histogram that already holds samples
	direct.Observe("h", 17)
	for _, batch := range samples {
		var local Histogram
		for _, v := range batch {
			local.Observe(v)
			direct.Observe("h", v)
		}
		merged.AddHistogram("h", &local)
	}
	if !reflect.DeepEqual(merged.hists["h"], direct.hists["h"]) {
		t.Fatalf("merged histogram %+v, want %+v", merged.hists["h"], direct.hists["h"])
	}
	if a, b := merged.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%v\n%v", a, b)
	}
}

// TestAddEmptyHistogramCreatesNothing guards the snapshot's Mean = Sum /
// Count: publishing an empty histogram must not create a zero-count series.
func TestAddEmptyHistogramCreatesNothing(t *testing.T) {
	r := NewRegistry()
	r.AddHistogram("h", &Histogram{})
	if s := r.Snapshot(); len(s.Histograms) != 0 {
		t.Fatalf("empty publish created %+v", s.Histograms)
	}
	var nilReg *Registry
	nilReg.AddHistogram("h", &Histogram{}) // disabled registry: no-op
}
