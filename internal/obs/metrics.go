package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Registry is a metrics registry: named counters, gauges, and log-scale
// histograms. A nil *Registry is the disabled registry — every method
// returns immediately — so call sites chase tr.Metrics() without guards.
//
// Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry creates an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Count adds delta to the named counter.
func (r *Registry) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the current value of the named counter (0 when the
// counter has never been incremented or the registry is disabled). It is
// the cheap point lookup for hot read paths — unlike Snapshot it copies
// and sorts nothing.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge sets the named gauge to its latest value.
func (r *Registry) Gauge(name string, value int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// Observe records one sample in the named log-scale histogram. Negative
// samples clamp to zero.
func (r *Registry) Observe(name string, sample int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hist(name).Observe(sample)
	r.mu.Unlock()
}

// AddHistogram merges every sample of h into the named histogram, with
// the same result as passing each to Observe: one lock acquisition for a
// whole batch of samples. An empty h changes nothing — in particular it
// creates no zero-count histogram.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	if r == nil || h.count == 0 {
		return
	}
	r.mu.Lock()
	r.hist(name).merge(h)
	r.mu.Unlock()
}

// hist returns the named histogram, creating it; r.mu must be held.
func (r *Registry) hist(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Histogram buckets samples by bit length: bucket i holds samples whose
// value has bit length i, i.e. [2^(i-1), 2^i) for i ≥ 1 and {0} for
// i = 0. Power-of-two buckets cover the nanosecond-to-minutes and
// byte-to-gigabyte ranges in 64 fixed slots with no configuration.
//
// The zero Histogram is empty and ready to use. Outside a Registry it is
// not safe for concurrent use: it is the task-local accumulator a hot
// loop observes into without locking and later publishes whole with
// Registry.AddHistogram.
type Histogram struct {
	buckets [65]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// merge adds o's samples to h.
func (h *Histogram) merge(o *Histogram) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// quantile returns an upper bound for the q-quantile: the top edge of
// the bucket holding the q·count-th sample (exact for min/max samples
// seen, within 2× otherwise).
func (h *Histogram) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count-1)))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > rank {
			if i == 0 {
				return 0
			}
			hi := int64(1)<<uint(i) - 1
			if hi > h.max {
				hi = h.max
			}
			if lo := h.min; hi < lo {
				hi = lo
			}
			return hi
		}
	}
	return h.max
}

// HistSummary is the exported summary of one histogram. Quantiles are
// bucket upper bounds (within 2× of the true value); Min, Max, Sum, and
// Mean are exact.
type HistSummary struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
}

// MetricValue is one named counter or gauge value.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// MetricsSnapshot is a point-in-time copy of a registry, every section
// sorted by name so serialization is deterministic.
type MetricsSnapshot struct {
	Counters   []MetricValue `json:"counters,omitempty"`
	Gauges     []MetricValue `json:"gauges,omitempty"`
	Histograms []HistSummary `json:"histograms,omitempty"`
}

// Snapshot returns a sorted copy of the registry (zero-value snapshot
// when disabled).
func (r *Registry) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: v})
	}
	for name, v := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: v})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistSummary{
			Name:  name,
			Count: h.count,
			Sum:   h.sum,
			Min:   h.min,
			Max:   h.max,
			Mean:  h.sum / h.count,
			P50:   h.quantile(0.50),
			P95:   h.quantile(0.95),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// String renders the snapshot as aligned text, one metric per line.
func (s MetricsSnapshot) String() string {
	var out []byte
	for _, c := range s.Counters {
		out = append(out, fmt.Sprintf("counter %-32s %d\n", c.Name, c.Value)...)
	}
	for _, g := range s.Gauges {
		out = append(out, fmt.Sprintf("gauge   %-32s %d\n", g.Name, g.Value)...)
	}
	for _, h := range s.Histograms {
		out = append(out, fmt.Sprintf("hist    %-32s n=%d sum=%d min=%d mean=%d p50=%d p95=%d max=%d\n",
			h.Name, h.Count, h.Sum, h.Min, h.Mean, h.P50, h.P95, h.Max)...)
	}
	return string(out)
}
