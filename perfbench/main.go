// Command perfbench is the repository's benchmark. It starts a real
// skylined process, drives it over loopback HTTP with one workload,
// checks every answer against the benchmark's own reference, and prints
// the workload's end-to-end metrics (-trace 0) or per-layer metrics
// (-trace 1, which adds server counters and a separate in-process traced
// run). run.sh builds both binaries from the checkout and starts it:
//
//	bash perfbench/run.sh --workload cached-anti --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// answer was verified, 1 when verification failed, and 2 when the run
// could not be carried out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	skylined string
	outdir   string
}

// setups is how many times a run starts skylined and registers its
// dataset; setup_s is their median, so one slow process start does not
// move it.
const setups = 9

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: cached-anti, inline-indep, maintained-churn, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics (adds the traced run)")
	flag.StringVar(&o.skylined, "skylined", "", "path to the skylined binary under test")
	flag.StringVar(&o.outdir, "outdir", ".bench_build", "directory for working files, result records and Chrome traces")
	flag.Parse()
	os.Exit(run(o))
}

func run(o options) int {
	var todo []*workload
	if o.workload == "all" {
		todo = workloads
	} else if w := findWorkload(o.workload); w != nil {
		todo = []*workload{w}
	}
	switch {
	case len(todo) == 0:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", o.workload)
		return 2
	case o.skylined == "":
		fmt.Fprintln(os.Stderr, "perfbench: -skylined is required")
		return 2
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	host := probeHost()
	final := finalLine{Correct: true, Metrics: map[string]finalMetric{}}
	for _, w := range todo {
		wctx, cancel := context.WithTimeout(ctx, runLimit)
		r, err := runWorkload(wctx, o, w, host)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		r.print()
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(todo) > 1 {
				name = w.name + "/" + name
			}
			final.Metrics[name] = finalMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runLimit bounds one workload's run, so a wedged server cannot hold the
// benchmark past its time budget.
const runLimit = 170 * time.Second

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// metric is one reported number. N is its sample count where it is a
// statistic over requests, 0 otherwise.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run. Metrics are the set the final line carries
// (end-to-end or per-layer, by -trace); Extra are end-to-end figures that
// hold only on some workloads or are zero on a correct run, kept in the
// record and the printed report.
type result struct {
	Workload  string         `json:"workload"`
	Trace     int            `json:"trace"`
	Host      hostInfo       `json:"host"`
	Config    map[string]any `json:"config"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   []metric       `json:"metrics"`
	Extra     []metric       `json:"extra"`
	Problems  []string       `json:"problems,omitempty"`
	Record    string         `json:"-"`
}

func (r *result) print() {
	fmt.Printf("workload %s (seed %v, trace %d)\n", r.Workload, r.Config["seed"], r.Trace)
	fmt.Printf("  host %s/%s, %q, nproc %d, GOMAXPROCS %d, %s, commit %s, source %.12s\n",
		r.Host.GOOS, r.Host.GOARCH, r.Host.CPUModel, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit, r.Host.SourceSHA256)
	keys := make([]string, 0, len(r.Config))
	for k := range r.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  config %s = %v\n", k, r.Config[k])
	}
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
		if m.N > 0 {
			fmt.Printf("  %-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	fmt.Printf("  verified %d of %d requests (%d failed); record %s\n", r.Attempted-r.Failed, r.Attempted, r.Failed, r.Record)
}

// runWorkload carries out one run: set-ups, warm-up, the measured
// window, verification and, with -trace 1, the traced run.
func runWorkload(ctx context.Context, o options, w *workload, host hostInfo) (*result, error) {
	window := time.Duration(o.seconds) * time.Second
	p := newPlan(w, o.seed, window)
	work, err := filepath.Abs(filepath.Join(o.outdir, "work", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	resultsDir := filepath.Join(o.outdir, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}

	// Set up several times; the last server stays up for the load.
	hc := newHTTPClient(2)
	var setupTimes []float64
	var srv *server
	var baseGen uint64
	defer func() {
		if srv != nil {
			_ = srv.stop() // error path only; the success path checks stop below
		}
	}()
	for k := 0; k < setups; k++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		var d time.Duration
		srv, d, baseGen, err = setUp(o.skylined, p, filepath.Join(work, fmt.Sprintf("data-%d", k)), hc)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	afterSetup, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}

	lc := &client{http: newHTTPClient(2), base: srv.base, epoch: time.Now()}
	load := func(d time.Duration, measured bool) []sample {
		if w.maintained() {
			return lc.openLoop(ctx, p.streams(measured), measured)
		}
		return lc.closedLoop(ctx, p.reads, w.clients, d, measured)
	}
	samples := load(warmup, false)
	before, err := srv.stats(hc)
	if err != nil {
		return nil, err
	}
	procBefore, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	t0 := lc.now()
	samples = append(samples, load(window, true)...)
	elapsed := lc.now() - t0
	after, err := srv.stats(hc)
	if err != nil {
		return nil, err
	}
	procAfter, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	lc.http.CloseIdleConnections()
	hc.CloseIdleConnections()

	// Verification, after the server is gone.
	r := &result{Workload: w.name, Trace: o.trace, Host: host, Config: p.config()}
	var qstats map[*sample]queryStats
	var gens map[uint64]digest
	if w.maintained() {
		gens, r.Problems = p.verifyChurn(samples, baseGen)
	} else {
		qstats = p.verifyQueries(samples)
	}
	for i := range samples {
		s := &samples[i]
		r.Attempted++
		if s.failed() {
			r.Failed++
			if len(r.Problems) < 10 {
				r.Problems = append(r.Problems, describeFailure(s))
			}
		}
	}

	m := measure(p, samples, qstats, elapsed)
	m.setups = setupTimes
	m.delta = after.delta(before)
	m.cpuMs = float64(procAfter.cpuTicks-procBefore.cpuTicks) * 1000 / clockTicks
	m.hwmMiB = float64(procAfter.hwmKiB) / 1024
	m.rssGrowthKiB = float64(procAfter.rssKiB - afterSetup.rssKiB)
	r.Metrics, r.Extra = m.endToEnd()
	if o.trace == 1 {
		chrome := filepath.Join(resultsDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		var tres *tracedResult
		if w.maintained() {
			tres = traceChurn(p, gens, work, chrome)
		} else {
			tres = traceQueries(p, chrome)
		}
		r.Problems = append(r.Problems, tres.problems...)
		r.Extra = append(r.Metrics, r.Extra...)
		r.Metrics = m.perLayer(tres)
		r.Config["chrome_trace"] = chrome
		r.Config["traced_requests"] = tres.requests
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	r.Record = filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, o.trace))
	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(r.Record, append(rec, '\n'), 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

// setUp starts skylined, waits for /healthz and registers the dataset.
// It returns the server, the time from process start to the last
// acknowledgement, and the dataset's generation (maintained datasets).
func setUp(bin string, p *plan, dataDir string, hc *http.Client) (*server, time.Duration, uint64, error) {
	var args []string
	if p.w.maintained() {
		args = []string{"-datadir", dataDir}
	}
	t0 := time.Now()
	srv, err := startServer(bin, args)
	if err != nil {
		return nil, 0, 0, err
	}
	fail := func(err error) (*server, time.Duration, uint64, error) {
		_ = srv.stop() // already failing; the first error is the one reported
		return nil, 0, 0, err
	}
	if err := srv.waitHealthy(hc); err != nil {
		return fail(err)
	}
	var ack struct {
		Rows int    `json:"rows"`
		Gen  uint64 `json:"gen"`
	}
	if p.registration != nil {
		body, err := srv.post(hc, "/v1/datasets", p.registration)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return fail(fmt.Errorf("decoding registration acknowledgement: %w", err))
		}
	}
	d := time.Since(t0)
	if p.registration != nil && ack.Rows != len(p.data) {
		return fail(fmt.Errorf("registration acknowledged %d rows, sent %d", ack.Rows, len(p.data)))
	}
	return srv, d, ack.Gen, nil
}

func describeFailure(s *sample) string {
	what := fmt.Sprintf("%s %s", s.req.method, s.req.path)
	switch {
	case s.err != nil:
		return what + ": " + s.err.Error()
	case s.status != http.StatusOK:
		return fmt.Sprintf("%s: status %d: %.200s", what, s.status, s.rest)
	case s.scanErr != nil:
		return what + ": " + s.scanErr.Error()
	default:
		return what + ": " + s.bad
	}
}

// ---- metrics ----

// measurements holds what one run observed, before it is turned into
// named metrics.
type measurements struct {
	w            *workload
	reads        []*sample // measured, verified reads
	writes       []*sample // measured, verified writes
	completed    int       // measured requests that got a response
	attempted    int
	failed       int
	elapsed      time.Duration
	qstats       map[*sample]queryStats
	lagMs        []float64
	allRequests  int // every load request since set-up
	setups       []float64
	delta        counters
	cpuMs        float64
	hwmMiB       float64
	rssGrowthKiB float64
}

func measure(p *plan, samples []sample, qstats map[*sample]queryStats, elapsed time.Duration) *measurements {
	m := &measurements{w: p.w, elapsed: elapsed, qstats: qstats, allRequests: len(samples)}
	for i := range samples {
		s := &samples[i]
		if !s.measured {
			continue
		}
		m.attempted++
		if s.err == nil {
			m.completed++
		}
		if p.w.maintained() {
			m.lagMs = append(m.lagMs, ms(s.start-s.due))
		}
		if s.failed() {
			m.failed++
			continue
		}
		if s.req.write {
			m.writes = append(m.writes, s)
		} else {
			m.reads = append(m.reads, s)
		}
	}
	return m
}

func latenciesMs(ss []*sample, f func(*sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s))
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio returns a/b, or 0 when b is 0 (the layer was not entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (m *measurements) endToEnd() (main, extra []metric) {
	reads := latenciesMs(m.reads, (*sample).latency)
	writes := latenciesMs(m.writes, (*sample).latency)
	ok := float64(len(m.reads) + len(m.writes))
	main = []metric{
		{Name: "read_p50_ms", Unit: "ms", Value: quantile(reads, 0.50), N: len(reads)},
		{Name: "throughput_rps", Unit: "1/s", Value: ok / m.elapsed.Seconds(), N: int(ok)},
		{Name: "setup_s", Unit: "s", Value: quantile(m.setups, 0.5), N: len(m.setups)},
		{Name: "server_cpu_ms_per_op", Unit: "ms", Value: ratio(m.cpuMs, float64(m.completed)), N: m.completed},
		{Name: "server_peak_rss_mib", Unit: "MiB", Value: m.hwmMiB},
	}
	// read_p99_ms is reported but not gated: on maintained-churn it
	// follows the host's wake-up jitter from run to run.
	extra = []metric{
		{Name: "read_p99_ms", Unit: "ms", Value: quantile(reads, 0.99), N: len(reads)},
		{Name: "error_ratio", Unit: "ratio", Value: ratio(float64(m.failed), float64(m.attempted)), N: m.attempted},
	}
	if m.w.maintained() {
		extra = append(extra,
			metric{Name: "write_p50_ms", Unit: "ms", Value: quantile(writes, 0.50), N: len(writes)},
			metric{Name: "write_p99_ms", Unit: "ms", Value: quantile(writes, 0.99), N: len(writes)})
	}
	return main, extra
}

func (m *measurements) perLayer(t *tracedResult) []metric {
	d := m.delta
	ops := float64(m.completed)
	batches := float64(len(m.writes))
	nsMs := func(name string) float64 { return float64(d.h[name].Sum) / 1e6 }
	perOp := func(v float64) float64 { return ratio(v, ops) }

	var reqBytes, respBytes, surviving, nonEmpty float64
	var ttfb, body, overhead []float64
	for _, s := range m.reads {
		reqBytes += float64(len(s.req.body))
		respBytes += float64(s.respLen)
		ttfb = append(ttfb, ms(s.first-s.start))
		body = append(body, ms(s.end-s.first))
		st := m.qstats[s] // zero for maintained reads: no server-side compute time is reported
		overhead = append(overhead, ms(s.end-s.start)-float64(st.Runtime)/1e6)
		surviving += float64(st.Surviving)
		nonEmpty += float64(st.NonEmpty)
	}
	nr := float64(len(m.reads))
	insert := d.h["algo.insert.ns"]
	ckpt := d.h["wal.checkpoint.ns"]
	deltas := d.c["maintain.deltas.inserted"] + d.c["maintain.deltas.deleted"] + d.c["maintain.deltas.missing"] + d.c["maintain.deltas.evicted"]
	n := len(m.reads)
	return []metric{
		{Name: "skylined.request_bytes", Unit: "B", Value: ratio(reqBytes, nr), N: n},
		{Name: "skylined.response_bytes", Unit: "B", Value: ratio(respBytes, nr), N: n},
		{Name: "skylined.ttfb_ms", Unit: "ms", Value: quantile(ttfb, 0.5), N: n},
		{Name: "skylined.body_ms", Unit: "ms", Value: quantile(body, 0.5), N: n},
		{Name: "skylined.overhead_ms", Unit: "ms", Value: quantile(overhead, 0.5), N: n},
		{Name: "skylined.json_ms", Unit: "ms", Value: t.selfMs["skylined"], N: t.requests},
		{Name: "mrskyline.self_ms", Unit: "ms", Value: t.selfMs["mrskyline"], N: t.requests},
		{Name: "mapreduce.jobs_per_op", Unit: "count", Value: perOp(float64(d.c["mr.queue.admitted"]))},
		{Name: "mapreduce.queue_wait_ms_per_op", Unit: "ms", Value: perOp(nsMs("mr.queue.wait.ns"))},
		{Name: "mapreduce.rejected", Unit: "count", Value: float64(d.c["mr.queue.rejected"])},
		{Name: "mapreduce.map_task_ms_per_op", Unit: "ms", Value: perOp(nsMs("mr.task.map.ns"))},
		{Name: "mapreduce.reduce_task_ms_per_op", Unit: "ms", Value: perOp(nsMs("mr.task.reduce.ns"))},
		{Name: "mapreduce.shuffle_bytes_per_op", Unit: "B", Value: perOp(float64(d.h["mr.shuffle.reducer.bytes"].Sum))},
		{Name: "mapreduce.self_ms", Unit: "ms", Value: t.selfMs["mapreduce"], N: t.requests},
		{Name: "core.bitstring_ms_per_op", Unit: "ms", Value: perOp(nsMs("algo.bitstring_exchange.ns"))},
		{Name: "core.grid_build_ms_per_op", Unit: "ms", Value: perOp(nsMs("algo.grid_build.ns"))},
		{Name: "core.merge_ms_per_op", Unit: "ms", Value: perOp(nsMs("algo.merge.ns"))},
		{Name: "core.surviving_ratio", Unit: "ratio", Value: ratio(surviving, nonEmpty), N: n},
		{Name: "core.self_ms", Unit: "ms", Value: t.selfMs["core"], N: t.requests},
		{Name: "core.mapper_partcmp_max", Unit: "count", Value: float64(t.mapperPartCmp)},
		{Name: "core.reducer_partcmp_max", Unit: "count", Value: float64(t.reducerPartCmp)},
		{Name: "skyline.dominance_tests_per_op", Unit: "count", Value: perOp(float64(d.c["algo.dominance.tests"]))},
		{Name: "skyline.local_skyline_ms_per_op", Unit: "ms", Value: perOp(nsMs("algo.local_skyline.ns"))},
		{Name: "skyline.insert_ns_mean", Unit: "ns", Value: ratio(float64(insert.Sum), float64(insert.Count)), N: int(insert.Count)},
		{Name: "skyline.self_ms", Unit: "ms", Value: t.selfMs["skyline"], N: t.requests},
		{Name: "maintain.deltas_per_op", Unit: "count", Value: perOp(float64(deltas))},
		{Name: "maintain.publishes", Unit: "count", Value: float64(d.c["maintain.publishes"])},
		{Name: "maintain.apply_ms_per_batch", Unit: "ms", Value: t.applyMs, N: t.batches},
		{Name: "maintain.snapshot_ms_per_read", Unit: "ms", Value: t.snapshotMs, N: t.batches},
		{Name: "wal.fsyncs_per_batch", Unit: "count", Value: ratio(float64(d.c["wal.fsyncs"]), batches)},
		{Name: "wal.fsync_ms_per_batch", Unit: "ms", Value: ratio(nsMs("wal.fsync.ns"), batches)},
		{Name: "wal.append_bytes_per_batch", Unit: "B", Value: ratio(float64(d.c["wal.append.bytes"]), batches)},
		{Name: "wal.checkpoints", Unit: "count", Value: float64(d.c["wal.checkpoints"])},
		{Name: "wal.checkpoint_ms", Unit: "ms", Value: ratio(nsMs("wal.checkpoint.ns"), float64(ckpt.Count)), N: int(ckpt.Count)},
		{Name: "obs.rss_growth_kib_per_1k_ops", Unit: "KiB", Value: ratio(m.rssGrowthKiB*1000, float64(m.allRequests)), N: m.allRequests},
		{Name: "costmodel.kappa_mapper", Unit: "count", Value: float64(t.kappaMapper)},
		{Name: "costmodel.kappa_reducer", Unit: "count", Value: float64(t.kappaReducer)},
		{Name: "loadgen.lag_p99_ms", Unit: "ms", Value: quantile(m.lagMs, 0.99), N: len(m.lagMs)},
		{Name: "trace.request_ms", Unit: "ms", Value: t.tracedMs, N: t.requests},
		{Name: "trace.untraced_request_ms", Unit: "ms", Value: t.untracedMs, N: t.requests},
		{Name: "trace.overhead_ms", Unit: "ms", Value: t.tracedMs - t.untracedMs, N: t.requests},
	}
}
