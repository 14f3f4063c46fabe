package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	mrskyline "mrskyline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/costmodel"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/tuple"
)

// The traced run replays a workload's requests serially in this process,
// with spans recorded here around the calls into each layer: JSON
// decoding and encoding (the skylined layer, minus HTTP), the
// mrskyline.Service or maintained-handle call, and — through an
// obs.Tracer on the engine — the MapReduce jobs, queue, phases, tasks
// and algorithm phases below it. It runs after the timed window and
// never overlaps it.

// benchTrack holds the spans recorded by the benchmark itself; their
// category names the layer the spanned call belongs to.
const benchTrack = "bench"

// layerRank orders layers from the outermost to the innermost.
var layerRank = map[string]int{"skylined": 1, "mrskyline": 2, "maintain": 2, "mapreduce": 3, "core": 4, "skyline": 5}

// spanLayer maps a span to the layer that owns it.
func spanLayer(s obs.Span) string {
	switch {
	case s.Track == benchTrack:
		return s.Cat
	case s.Cat == obs.CatAlgo && s.Name == "local-skyline":
		return "skyline"
	case s.Cat == obs.CatAlgo:
		return "core"
	default:
		return "mapreduce"
	}
}

// attribute splits root's interval among layers. At every instant, each
// track's innermost covering span names a layer, and the instant is
// charged to the innermost of those layers, so parallel tasks on
// different tracks are counted once. The self times therefore sum to the
// root's duration exactly.
func attribute(root obs.Span, spans []obs.Span) map[string]time.Duration {
	var in []obs.Span
	cuts := []time.Duration{root.Start, root.End}
	for _, s := range spans {
		if s.End <= root.Start || s.Start >= root.End {
			continue
		}
		s.Start, s.End = max(s.Start, root.Start), min(s.End, root.End)
		in = append(in, s)
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		inner := map[string]obs.Span{} // track → innermost span covering [a, b)
		for _, s := range in {
			if s.Start <= a && s.End >= b {
				if cur, ok := inner[s.Track]; !ok || s.End-s.Start < cur.End-cur.Start {
					inner[s.Track] = s
				}
			}
		}
		best := spanLayer(root)
		for _, s := range inner {
			if l := spanLayer(s); layerRank[l] > layerRank[best] {
				best = l
			}
		}
		out[best] += b - a
	}
	return out
}

// tracedResult is what the traced run reports.
type tracedResult struct {
	requests       int
	batches        int                // maintained-churn: counted write+read pairs
	selfMs         map[string]float64 // mean self time per request, by layer
	tracedMs       float64            // mean traced request duration
	untracedMs     float64            // mean untraced request duration
	applyMs        float64            // mean ApplyDeltas span (maintained-churn)
	snapshotMs     float64            // mean Skyline() span (maintained-churn)
	kappaMapper    int64
	kappaReducer   int64
	mapperPartCmp  int64
	reducerPartCmp int64
	problems       []string
}

// newTracedService builds a Service on its own in-process engine with
// skylined's default shape (8 nodes × 2 slots, 4 jobs in flight), traced
// when tr is non-nil.
func newTracedService(tr *obs.Tracer) (*mrskyline.Service, error) {
	c, err := cluster.Uniform(8, 2)
	if err != nil {
		return nil, err
	}
	eng := mapreduce.NewEngine(c)
	if tr != nil {
		eng.SetTrace(tr)
	}
	eng.SetAdmission(4, 64)
	return mrskyline.NewService(mrskyline.ServiceConfig{Executor: eng})
}

// wireResult is a query response body as skylined writes it.
type wireResult struct {
	Skyline [][]float64     `json:"skyline"`
	Stats   mrskyline.Stats `json:"stats"`
}

// serveQuery is the in-process counterpart of one skylined query
// request: decode, call the Service, encode. It returns the encoded
// response.
func serveQuery(ctx context.Context, tr *obs.Tracer, svc *mrskyline.Service, r *request, datasets map[string][][]float64, buf *bytes.Buffer) error {
	sp := tr.Start(benchTrack, "json.decode", "skylined")
	var q wireQuery
	err := json.Unmarshal(r.body, &q)
	rows := q.Data
	if q.Dataset != "" {
		rows = datasets[q.Dataset]
	}
	sp.End()
	if err != nil {
		return err
	}
	opts := mrskyline.Options{Algorithm: mrskyline.Algorithm(q.Algorithm)}
	sp = tr.Start(benchTrack, "mrskyline.Service", "mrskyline")
	var res *mrskyline.Result
	switch r.path {
	case "/v1/skyline":
		res, err = svc.Compute(ctx, rows, opts)
	case "/v1/constrained":
		ranges := make([]mrskyline.Range, len(q.Constraints))
		for i, c := range q.Constraints {
			ranges[i] = mrskyline.Unbounded()
			if c.Min != nil {
				ranges[i].Min = *c.Min
			}
			if c.Max != nil {
				ranges[i].Max = *c.Max
			}
		}
		res, err = svc.ComputeConstrained(ctx, rows, ranges, opts)
	case "/v1/subspace":
		res, err = svc.ComputeSubspace(ctx, rows, q.Dims, opts)
	default:
		err = fmt.Errorf("no in-process counterpart for %s", r.path)
	}
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.Start(benchTrack, "json.encode", "skylined")
	buf.Reset()
	err = json.NewEncoder(buf).Encode(wireResult{Skyline: res.Skyline, Stats: res.Stats})
	sp.End()
	return err
}

// tracedRequests is how many query requests the traced run counts; it
// replays the query templates in rounds, and round 0 warms up uncounted.
const tracedRequests = 15

// traceQueries replays a query workload serially on two in-process
// Services, one traced and one not, alternating request by request so
// that drift on the host weighs on both alike. One direct core call then
// gives the cost-model comparison.
func traceQueries(p *plan, chromePath string) *tracedResult {
	res := &tracedResult{selfMs: map[string]float64{}}
	tr := obs.New()
	off, err := newTracedService(nil)
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return res
	}
	defer off.Close()
	on, err := newTracedService(tr)
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return res
	}
	defer on.Close()

	datasets := map[string][][]float64{datasetName: p.data}
	var buf bytes.Buffer
	serve := func(tr *obs.Tracer, svc *mrskyline.Service, r *request) time.Duration {
		root := tr.Start(benchTrack, "request", "skylined", obs.Arg{Key: "path", Value: r.path})
		t0 := time.Now()
		err := serveQuery(context.Background(), tr, svc, r, datasets, &buf)
		d := time.Since(t0)
		root.End()
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("in-process %s: %v", r.path, err))
		} else if dig, _, err := scanSkyline(buf.Bytes()); err != nil || dig != p.refs[r.id] {
			res.problems = append(res.problems, fmt.Sprintf("in-process %s: answer differs from the reference", r.path))
		}
		return d
	}
	rounds := 1 + (tracedRequests+len(p.reads)-1)/len(p.reads)
	var untraced, traced time.Duration
	for round := 0; round < rounds; round++ {
		for _, r := range p.reads {
			dOff := serve(nil, off, r)
			dOn := serve(tr, on, r)
			if round > 0 {
				untraced += dOff
				traced += dOn
			}
		}
	}
	n := len(p.reads) * (rounds - 1)
	res.requests = n
	res.untracedMs = ms(untraced) / float64(n)
	res.tracedMs = ms(traced) / float64(n)
	spans := tr.Spans()
	res.attributeAll(requestSpans(spans, len(p.reads)), spans)

	// The cost model's κ for the first query's grid, beside the measured
	// partition-comparison maxima of a direct core run on the same rows.
	st, sky, err := directCore(tr, p.inputs[0], p.algorithm == "MR-GPSRS")
	switch {
	case err != nil:
		res.problems = append(res.problems, "direct core run: "+err.Error())
	case digestRows(sky) != p.refs[0]:
		res.problems = append(res.problems, "direct core run: answer differs from the reference")
	default:
		d := len(p.inputs[0][0])
		res.kappaMapper = costmodel.KappaMapper(st.PPD, d)
		res.kappaReducer = costmodel.KappaReducer(st.PPD, d)
		res.mapperPartCmp = st.MapperPartCmpMax
		res.reducerPartCmp = st.ReducerPartCmpMax
	}
	res.writeChrome(tr, chromePath)
	return res
}

// requestSpans returns the request root spans in time order, without the
// first skip (the warm-up requests).
func requestSpans(spans []obs.Span, skip int) []obs.Span {
	var roots []obs.Span
	for _, s := range spans {
		if s.Track == benchTrack && s.Name == "request" {
			roots = append(roots, s)
		}
	}
	if len(roots) < skip {
		return nil
	}
	return roots[skip:]
}

// attributeAll computes per-layer self times for every root and checks
// that each request's self times sum to its duration.
func (res *tracedResult) attributeAll(roots, spans []obs.Span) {
	for _, root := range roots {
		var total time.Duration
		for layer, d := range attribute(root, spans) {
			res.selfMs[layer] += ms(d) / float64(len(roots))
			total += d
		}
		if total != root.End-root.Start {
			res.problems = append(res.problems, fmt.Sprintf("layer self times sum to %v, request took %v", total, root.End-root.Start))
		}
	}
}

// writeChrome writes tr's spans as a Chrome trace after checking them
// with the program's own trace validator.
func (res *tracedResult) writeChrome(tr *obs.Tracer, path string) {
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, tr)
	if err == nil {
		err = obs.ValidateChromeTraceJSON(buf.Bytes())
	}
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		res.problems = append(res.problems, "Chrome trace: "+err.Error())
	}
}

// directCore runs MR-GPMRS (or MR-GPSRS) on rows through core directly,
// on a fresh engine carrying tr, with the grid bounded by the rows' own
// bounding box as the Service does.
func directCore(tr *obs.Tracer, rows [][]float64, gpsrs bool) (*core.Stats, [][]float64, error) {
	c, err := cluster.Uniform(8, 2)
	if err != nil {
		return nil, nil, err
	}
	eng := mapreduce.NewEngine(c)
	eng.SetTrace(tr)
	list := make(tuple.List, len(rows))
	lo := append([]float64(nil), rows[0]...)
	hi := append([]float64(nil), rows[0]...)
	for i, r := range rows {
		list[i] = tuple.Tuple(r)
		for k, v := range r {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
	}
	cfg := core.Config{Engine: eng, Lo: lo, Hi: hi}
	name := "core.GPMRS"
	if gpsrs {
		name = "core.GPSRS"
	}
	sp := tr.Start(benchTrack, name, "core")
	var sky tuple.List
	var st *core.Stats
	if gpsrs {
		sky, st, err = core.GPSRS(cfg, list)
	} else {
		sky, st, err = core.GPMRS(cfg, list)
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	out := make([][]float64, len(sky))
	for i, t := range sky {
		out[i] = t
	}
	return st, out, nil
}

// churnRounds is how many write+read pairs the traced run replays on
// maintained-churn; the first churnWarm pairs are not counted.
const (
	churnRounds = 60
	churnWarm   = 5
)

// churnStep is one write+read pair served in-process on a maintained
// handle, as skylined's handlers serve them.
type churnStep struct {
	write, read     time.Duration // whole requests
	apply, snapshot time.Duration // ApplyDeltas and Skyline() alone
}

func serveChurn(tr *obs.Tracer, h *mrskyline.MaintainedSkyline, body []byte, gens map[uint64]digest, buf *bytes.Buffer) (churnStep, error) {
	var st churnStep
	root := tr.Start(benchTrack, "request", "skylined", obs.Arg{Key: "op", Value: "write"})
	t0 := time.Now()
	sp := tr.Start(benchTrack, "json.decode", "skylined")
	var req struct {
		Deltas []mrskyline.Delta `json:"deltas"`
	}
	err := json.Unmarshal(body, &req)
	sp.End()
	if err != nil {
		return st, err
	}
	sp = tr.Start(benchTrack, "mrskyline.ApplyDeltas", "maintain")
	ta := time.Now()
	ack, err := h.ApplyDeltas(req.Deltas)
	st.apply = time.Since(ta)
	sp.End()
	if err != nil {
		return st, fmt.Errorf("ApplyDeltas: %w", err)
	}
	sp = tr.Start(benchTrack, "json.encode", "skylined")
	buf.Reset()
	err = json.NewEncoder(buf).Encode(ack)
	sp.End()
	st.write = time.Since(t0)
	root.End()
	if err != nil {
		return st, err
	}

	root = tr.Start(benchTrack, "request", "skylined", obs.Arg{Key: "op", Value: "read"})
	t0 = time.Now()
	sp = tr.Start(benchTrack, "mrskyline.Skyline", "maintain")
	ts := time.Now()
	snapshot := h.Skyline()
	st.snapshot = time.Since(ts)
	sp.End()
	sp = tr.Start(benchTrack, "json.encode", "skylined")
	buf.Reset()
	err = json.NewEncoder(buf).Encode(map[string]any{"gen": snapshot.Gen, "changed": true, "skyline": snapshot.Skyline})
	sp.End()
	st.read = time.Since(t0)
	root.End()
	if err != nil {
		return st, err
	}
	if dig, _, err := scanSkyline(buf.Bytes()); err != nil || dig != gens[snapshot.Gen] {
		return st, fmt.Errorf("in-process read at generation %d differs from the reference", snapshot.Gen)
	}
	return st, nil
}

// traceChurn replays the first batches of maintained-churn, each followed
// by a read, on two durable maintained handles, one traced and one not,
// alternating between them step by step.
func traceChurn(p *plan, gens map[uint64]digest, workDir, chromePath string) *tracedResult {
	res := &tracedResult{selfMs: map[string]float64{}}
	tr := obs.New()
	open := func(tr *obs.Tracer, dir string) (*mrskyline.MaintainedSkyline, func(), error) {
		svc, err := newTracedService(tr)
		if err != nil {
			return nil, nil, err
		}
		h, err := svc.OpenMaintained(p.data, mrskyline.MaintainOptions{DataDir: dir})
		if err != nil {
			svc.Close()
			return nil, nil, err
		}
		return h, func() {
			if err := h.Close(); err != nil {
				res.problems = append(res.problems, "closing maintained handle: "+err.Error())
			}
			svc.Close()
		}, nil
	}
	off, closeOff, err := open(nil, filepath.Join(workDir, "traced-off"))
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return res
	}
	defer closeOff()
	on, closeOn, err := open(tr, filepath.Join(workDir, "traced-on"))
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return res
	}
	defer closeOn()

	var buf bytes.Buffer
	var untraced, traced churnStep
	steps := min(churnRounds, len(p.writes))
	for i := 0; i < steps; i++ {
		a, err := serveChurn(nil, off, p.writes[i].body, gens, &buf)
		if err == nil {
			var b churnStep
			b, err = serveChurn(tr, on, p.writes[i].body, gens, &buf)
			if i >= churnWarm {
				untraced.write += a.write + a.read
				traced.write += b.write + b.read
				traced.apply += b.apply
				traced.snapshot += b.snapshot
			}
		}
		if err != nil {
			res.problems = append(res.problems, err.Error())
			return res
		}
	}
	res.batches = steps - churnWarm
	res.requests = 2 * res.batches
	res.untracedMs = ms(untraced.write) / float64(res.requests)
	res.tracedMs = ms(traced.write) / float64(res.requests)
	res.applyMs = ms(traced.apply) / float64(res.batches)
	res.snapshotMs = ms(traced.snapshot) / float64(res.batches)
	spans := tr.Spans()
	res.attributeAll(requestSpans(spans, 2*churnWarm), spans)
	res.writeChrome(tr, chromePath)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
