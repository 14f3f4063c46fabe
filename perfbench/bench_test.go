package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"mrskyline/internal/obs"
)

// naiveSkyline is the definition: the rows no other row dominates.
func naiveSkyline(rows [][]float64) [][]float64 {
	var out [][]float64
	for i, p := range rows {
		dominated := false
		for j, q := range rows {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func TestReferenceSkylineMatchesDefinition(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rows := newRowGen(seed, 3, seed%2 == 0).rows(300)
		if got, want := digestRows(referenceSkyline(rows)), digestRows(naiveSkyline(rows)); got != want {
			t.Fatalf("seed %d: reference %+v, definition %+v", seed, got, want)
		}
	}
}

// encodeResponse writes a query response the way skylined does.
func encodeResponse(t *testing.T, rows [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{
		"skyline": rows,
		"stats":   map[string]any{"Runtime": 1000, "SkylineSize": len(rows), "NonEmpty": 4, "Surviving": 3},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorruptedResponseIsCaught(t *testing.T) {
	rows := newRowGen(7, 4, true).rows(500)
	sky := referenceSkyline(rows)
	var dominated []float64
	for _, r := range rows {
		if dominates(sky[0], r) {
			dominated = r
			break
		}
	}
	if dominated == nil {
		t.Fatal("test data has no row dominated by the first skyline row")
	}
	reversed := make([][]float64, len(sky))
	for i, r := range sky {
		reversed[len(sky)-1-i] = r
	}
	good := encodeResponse(t, sky)
	cases := map[string][]byte{
		"one digit changed":      bytes.Replace(good, []byte("0."), []byte("1."), 1),
		"row dropped":            encodeResponse(t, sky[1:]),
		"dominated row added":    encodeResponse(t, append(append([][]float64(nil), sky...), dominated)),
		"row replaced":           encodeResponse(t, append([][]float64{dominated}, sky[1:]...)),
		"empty skyline":          encodeResponse(t, [][]float64{}),
		"truncated body":         good[:len(good)/2],
		"skyline key missing":    []byte(`{"rows":[],"stats":{}}`),
		"stats size disagreeing": bytes.Replace(good, []byte(`"SkylineSize":`), []byte(`"SkylineSize":1`), 1),
	}
	p := &plan{reads: []*request{{method: http.MethodPost, path: "/v1/skyline"}}, inputs: [][][]float64{rows}}
	samples := []sample{{req: p.reads[0]}, {req: p.reads[0]}}
	samples[0].dig, samples[0].rest, samples[0].scanErr = scanSkyline(encodeResponse(t, reversed))
	samples[0].status = http.StatusOK
	for name, body := range cases {
		s := &samples[1]
		*s = sample{req: p.reads[0], status: http.StatusOK}
		s.dig, s.rest, s.scanErr = scanSkyline(body)
		p.verifyQueries(samples)
		if samples[0].failed() {
			t.Fatalf("%s: the correct response (rows in another order) was rejected: %s", name, samples[0].bad)
		}
		if !s.failed() {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
}

func TestScanSkylineEmptyAndNull(t *testing.T) {
	for _, body := range []string{`{"skyline":[],"stats":{}}`, `{"skyline":null,"stats":{}}`} {
		d, rest, err := scanSkyline([]byte(body))
		if err != nil || d.Rows != 0 || !strings.Contains(string(rest), `"skyline":null,"stats"`) {
			t.Errorf("%s: digest %+v rest %s err %v", body, d, rest, err)
		}
	}
}

func TestShadowMatchesBruteForceUnderChurn(t *testing.T) {
	w := &workload{name: "maintained-churn", rows: 400, dim: 3, anti: true, writeRate: 50, batchInserts: 10, batchDeletes: 10}
	gen := newRowGen(3, w.dim, w.anti)
	p := &plan{w: w, data: gen.rows(w.rows)}
	p.addBatches(gen, rand.New(rand.NewSource(4)), 60)
	sh := newShadow(p.data)
	for b, bt := range p.batches {
		if err := sh.apply(bt); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if got, want := sh.dig, digestRows(naiveSkyline(sh.rows())); got != want {
			t.Fatalf("batch %d: shadow %+v, brute force %+v", b, got, want)
		}
	}
}

func TestChurnVerificationCatchesStaleRead(t *testing.T) {
	w := &workload{name: "maintained-churn", rows: 300, dim: 3, anti: true, writeRate: 50, batchInserts: 5, batchDeletes: 5}
	gen := newRowGen(5, w.dim, w.anti)
	p := &plan{w: w, data: gen.rows(w.rows), reads: []*request{{method: http.MethodGet, path: "/skyline"}}}
	p.addBatches(gen, rand.New(rand.NewSource(6)), 3)
	// Write 0 is acknowledged at t=2ms; a read sent at t=5ms must see
	// generation 2 or later.
	ack := func(b int) []byte {
		sh := newShadow(p.data)
		for _, bt := range p.batches[:b+1] {
			if err := sh.apply(bt); err != nil {
				t.Fatal(err)
			}
		}
		return mustJSON(map[string]any{"inserted": 5, "deleted": 5, "gen": b + 2, "skyline_size": sh.dig.Rows})
	}
	read := func(gen int, rows [][]float64) sample {
		s := sample{req: p.reads[0], status: http.StatusOK, start: 5 * time.Millisecond, end: 6 * time.Millisecond}
		s.dig, s.rest, s.scanErr = scanSkyline(mustJSON(map[string]any{"gen": gen, "changed": true, "skyline": rows}))
		return s
	}
	samples := []sample{
		{req: p.writes[0], status: http.StatusOK, start: time.Millisecond, end: 2 * time.Millisecond, rest: ack(0)},
		read(1, referenceSkyline(p.data)), // stale: generation 1 was superseded before the read
	}
	p.verifyChurn(samples, 1)
	if samples[0].failed() {
		t.Fatalf("correct acknowledgement rejected: %s", samples[0].bad)
	}
	if !samples[1].failed() {
		t.Fatal("stale read accepted")
	}
}

func TestAttributeSumsToRequestDuration(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.Span{
		{Track: benchTrack, Name: "request", Cat: "skylined", Start: 0, End: 100 * ms},
		{Track: benchTrack, Name: "mrskyline.Service", Cat: "mrskyline", Start: 10 * ms, End: 90 * ms},
		{Track: obs.DriverTrack, Name: "bitstring-exchange", Cat: obs.CatAlgo, Start: 15 * ms, End: 30 * ms},
		{Track: obs.DriverTrack, Name: "job:bitstring-gen", Cat: obs.CatJob, Start: 18 * ms, End: 28 * ms},
		{Track: obs.DriverTrack, Name: "job:mr-gpmrs", Cat: obs.CatJob, Start: 30 * ms, End: 80 * ms},
		{Track: "node-0", Name: "task", Cat: obs.CatTask, Start: 30 * ms, End: 70 * ms},
		{Track: "node-0", Name: "local-skyline", Cat: obs.CatAlgo, Start: 40 * ms, End: 50 * ms},
		{Track: "node-1", Name: "local-skyline", Cat: obs.CatAlgo, Start: 45 * ms, End: 60 * ms},
	}
	got := attribute(spans[0], spans)
	want := map[string]time.Duration{
		"skylined":  20 * ms, // 0–10, 90–100
		"mrskyline": 15 * ms, // 10–15, 80–90
		"core":      5 * ms,  // 15–18, 28–30: the exchange around its job
		"mapreduce": 40 * ms, // 18–28, 30–40, 60–80: jobs and tasks outside any kernel span
		"skyline":   20 * ms, // 40–60, counted once while two nodes overlap
	}
	var total time.Duration
	for layer, d := range got {
		total += d
		if d != want[layer] {
			t.Errorf("%s: %v, want %v", layer, d, want[layer])
		}
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the request's 100ms", total)
	}
}
