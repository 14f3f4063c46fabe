package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// workload is one traffic mix against skylined.
type workload struct {
	name      string
	rows, dim int
	anti      bool
	// clients closed-loop goroutines cycle through the read templates.
	clients int
	// writeRate and readRate, for a maintained dataset, are the open-loop
	// rates per second of delta batches and of full skyline reads.
	writeRate, readRate float64
	batchInserts        int
	batchDeletes        int
}

func (w *workload) maintained() bool { return w.writeRate > 0 }

func (w *workload) distribution() string {
	if w.anti {
		return "anticorrelated"
	}
	return "independent"
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each was chosen.
var workloads = []*workload{
	{
		name:    "cached-anti",
		rows:    5000,
		dim:     4,
		anti:    true,
		clients: 2,
	},
	{
		name:    "inline-indep",
		rows:    5000,
		dim:     4,
		clients: 2,
	},
	{
		name:         "maintained-churn",
		rows:         10000,
		dim:          4,
		anti:         true,
		writeRate:    50,
		readRate:     50,
		batchInserts: 10,
		batchDeletes: 10,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wireQuery is a query request body as skylined accepts it.
type wireQuery struct {
	Dataset     string      `json:"dataset,omitempty"`
	Data        [][]float64 `json:"data,omitempty"`
	Algorithm   string      `json:"algorithm,omitempty"`
	Constraints []wireRange `json:"constraints,omitempty"`
	Dims        []int       `json:"dims,omitempty"`
}

type wireRange struct {
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// wireDelta is one element of a delta-batch body.
type wireDelta struct {
	Op  string    `json:"op"`
	Row []float64 `json:"row"`
}

// batch is one delta batch: the rows it inserts and the resident rows it
// deletes.
type batch struct {
	inserts, deletes [][]float64
}

// plan is everything one run of a workload sends, derived from the seed
// before any server starts.
type plan struct {
	w      *workload
	seed   int64
	window time.Duration // the measured window
	data   [][]float64   // the dataset: registered, or sent inline
	// algorithm is the queries' "algorithm" ("" for the default, MR-GPMRS).
	algorithm string

	// registration is the POST /v1/datasets body ("" for inline data).
	registration []byte
	// reads are the closed loop's query templates, or the open loop's
	// single skyline read; inputs[i] is the rows reads[i] ranges over
	// after constraint filtering or projection, and refs[i] its answer.
	reads  []*request
	inputs [][][]float64
	refs   []digest
	// Open loop only: every batch, warm-up first, and its request.
	batches  []batch
	writes   []*request
	warmReqs int // writes in the warm-up phase
}

const (
	warmup      = 2 * time.Second
	datasetName = "bench"
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own wire types always marshal
	}
	return b
}

// newPlan generates a workload's inputs from seed for a measured window
// of the given length.
func newPlan(w *workload, seed int64, window time.Duration) *plan {
	gen := newRowGen(seed, w.dim, w.anti)
	p := &plan{w: w, seed: seed, window: window, data: gen.rows(w.rows)}
	switch w.name {
	case "cached-anti":
		p.registration = mustJSON(map[string]any{"name": datasetName, "data": p.data})
		lo, hi := 0.1, 1.0
		constraints := make([]wireRange, w.dim)
		constraints[0] = wireRange{Min: &lo, Max: &hi}
		dims := []int{0, w.dim - 1}
		p.addRead("/v1/skyline", wireQuery{Dataset: datasetName}, p.data)
		p.addRead("/v1/constrained", wireQuery{Dataset: datasetName, Constraints: constraints}, filterRange(p.data, 0, lo, hi))
		p.addRead("/v1/subspace", wireQuery{Dataset: datasetName, Dims: dims}, project(p.data, dims))
	case "inline-indep":
		p.algorithm = "MR-GPSRS"
		p.addRead("/v1/skyline", wireQuery{Data: p.data, Algorithm: p.algorithm}, p.data)
	case "maintained-churn":
		p.registration = mustJSON(map[string]any{"name": datasetName, "data": p.data, "maintain": true})
		p.reads = []*request{{method: http.MethodGet, path: "/v1/datasets/" + datasetName + "/skyline"}}
		p.warmReqs = int(warmup.Seconds() * w.writeRate)
		p.addBatches(gen, rand.New(rand.NewSource(seed^0x5eed)), p.warmReqs+int(math.Ceil(window.Seconds()*w.writeRate)))
	}
	return p
}

func (p *plan) addRead(path string, q wireQuery, input [][]float64) {
	p.reads = append(p.reads, &request{method: http.MethodPost, path: path, body: mustJSON(q), id: len(p.reads)})
	p.inputs = append(p.inputs, input)
}

// addBatches draws n delta batches: fresh rows to insert, and distinct
// rows resident before the batch to delete.
func (p *plan) addBatches(gen *rowGen, pick *rand.Rand, n int) {
	resident := append([][]float64(nil), p.data...)
	for b := 0; b < n; b++ {
		var bt batch
		for i := 0; i < p.w.batchDeletes; i++ {
			k := pick.Intn(len(resident))
			bt.deletes = append(bt.deletes, resident[k])
			resident[k] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
		}
		bt.inserts = gen.rows(p.w.batchInserts)
		resident = append(resident, bt.inserts...)
		deltas := make([]wireDelta, 0, len(bt.inserts)+len(bt.deletes))
		for _, r := range bt.inserts {
			deltas = append(deltas, wireDelta{Op: "insert", Row: r})
		}
		for _, r := range bt.deletes {
			deltas = append(deltas, wireDelta{Op: "delete", Row: r})
		}
		p.batches = append(p.batches, bt)
		p.writes = append(p.writes, &request{
			method: http.MethodPost,
			path:   "/v1/datasets/" + datasetName + "/deltas",
			body:   mustJSON(map[string]any{"deltas": deltas}),
			write:  true,
			id:     b,
		})
	}
}

// streams returns the open loop's writer and reader streams for one
// phase: the warm-up phase, or the measured phase after it. The reader
// runs half a period behind the writer.
func (p *plan) streams(measured bool) []stream {
	writes := p.writes[:p.warmReqs]
	phase := warmup
	if measured {
		writes = p.writes[p.warmReqs:]
		phase = p.window
	}
	reads := make([]*request, int(phase.Seconds()*p.w.readRate))
	for i := range reads {
		reads[i] = p.reads[0]
	}
	rp := time.Duration(float64(time.Second) / p.w.readRate)
	return []stream{
		{period: time.Duration(float64(time.Second) / p.w.writeRate), reqs: writes},
		{offset: rp / 2, period: rp, reqs: reads},
	}
}

// config describes the run for the result record.
func (p *plan) config() map[string]any {
	w := p.w
	c := map[string]any{
		"workload":      w.name,
		"seed":          p.seed,
		"rows":          w.rows,
		"dim":           w.dim,
		"distribution":  w.distribution(),
		"window_s":      p.window.Seconds(),
		"warmup_s":      warmup.Seconds(),
		"setups":        setups,
		"skylined_args": "defaults (8 nodes × 2 slots, -maxinflight 4)",
	}
	paths := make([]string, len(p.reads))
	for i, r := range p.reads {
		paths[i] = r.path
	}
	c["reads"] = paths
	if w.maintained() {
		c["loop"] = fmt.Sprintf("open: %v reads/s beside %v batches/s of %d inserts + %d deletes", w.readRate, w.writeRate, w.batchInserts, w.batchDeletes)
		c["skylined_args"] = "defaults plus -datadir (-walsync always)"
	} else {
		c["loop"] = fmt.Sprintf("closed, %d clients", w.clients)
	}
	return c
}

// ---- verification ----

// queryStats is the part of a query response's stats the benchmark reads.
type queryStats struct {
	Runtime     int64
	SkylineSize int
	NonEmpty    int
	Surviving   int
}

// verifyQueries checks every query response against the reference
// answer of its template and returns each accepted read's stats.
func (p *plan) verifyQueries(samples []sample) map[*sample]queryStats {
	if p.refs == nil {
		for _, in := range p.inputs {
			p.refs = append(p.refs, digestRows(referenceSkyline(in)))
		}
	}
	stats := make(map[*sample]queryStats)
	for i := range samples {
		s := &samples[i]
		if s.err != nil || s.status != http.StatusOK || s.scanErr != nil {
			continue
		}
		var body struct {
			Stats queryStats `json:"stats"`
		}
		switch err := json.Unmarshal(s.rest, &body); {
		case err != nil:
			s.bad = "undecodable response: " + err.Error()
		case s.dig != p.refs[s.req.id]:
			s.bad = fmt.Sprintf("skyline differs from the reference (%d rows, want %d)", s.dig.Rows, p.refs[s.req.id].Rows)
		case body.Stats.SkylineSize != s.dig.Rows:
			s.bad = fmt.Sprintf("stats.SkylineSize %d but %d rows", body.Stats.SkylineSize, s.dig.Rows)
		default:
			stats[s] = body.Stats
		}
	}
	return stats
}

// verifyChurn replays the batches on the benchmark's shadow model and
// checks every write acknowledgement and every read against it. It
// returns the reference digest of every generation, keyed by generation.
func (p *plan) verifyChurn(samples []sample, baseGen uint64) (map[uint64]digest, []string) {
	var problems []string
	sh := newShadow(p.data)
	gens := map[uint64]digest{baseGen: sh.dig}
	for b, bt := range p.batches {
		if err := sh.apply(bt); err != nil {
			problems = append(problems, fmt.Sprintf("batch %d: %v", b, err))
			return gens, problems
		}
		g := baseGen + uint64(b) + 1
		gens[g] = sh.dig
		if b%128 == 127 || b == len(p.batches)-1 {
			if ref := digestRows(referenceSkyline(sh.rows())); ref != sh.dig {
				problems = append(problems, fmt.Sprintf("shadow skyline at generation %d disagrees with brute force", g))
			}
		}
	}

	// Writes are serial: in batch order, their start and end times ascend,
	// which the generation window of each read below relies on.
	var writes []*sample
	var reads []*sample
	for i := range samples {
		if samples[i].req.write {
			writes = append(writes, &samples[i])
		} else {
			reads = append(reads, &samples[i])
		}
	}
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].req.id < writes[j].req.id })
	for _, s := range writes {
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		var ack struct {
			Inserted, Deleted, Missing, Evicted int
			Gen                                 uint64
			SkylineSize                         int `json:"skyline_size"`
		}
		want := baseGen + uint64(s.req.id) + 1
		bt := p.batches[s.req.id]
		switch err := json.Unmarshal(s.rest, &ack); {
		case err != nil:
			s.bad = "undecodable acknowledgement: " + err.Error()
		case ack.Gen != want:
			s.bad = fmt.Sprintf("acknowledged generation %d, want %d", ack.Gen, want)
		case ack.Inserted != len(bt.inserts) || ack.Deleted != len(bt.deletes) || ack.Missing != 0 || ack.Evicted != 0:
			s.bad = fmt.Sprintf("acknowledged %d inserted, %d deleted, %d missing, %d evicted", ack.Inserted, ack.Deleted, ack.Missing, ack.Evicted)
		case ack.SkylineSize != gens[want].Rows:
			s.bad = fmt.Sprintf("skyline_size %d at generation %d, want %d", ack.SkylineSize, want, gens[want].Rows)
		}
	}
	for _, s := range reads {
		if s.err != nil || s.status != http.StatusOK || s.scanErr != nil {
			continue
		}
		var body struct {
			Gen     uint64 `json:"gen"`
			Changed bool   `json:"changed"`
		}
		// A read must see every batch acknowledged before it was sent,
		// and no batch sent after it completed.
		acked := sort.Search(len(writes), func(i int) bool { return writes[i].end > s.start })
		sent := sort.Search(len(writes), func(i int) bool { return writes[i].start >= s.end })
		lo, hi := baseGen+uint64(acked), baseGen+uint64(sent)
		switch err := json.Unmarshal(s.rest, &body); {
		case err != nil:
			s.bad = "undecodable response: " + err.Error()
		case !body.Changed:
			s.bad = `"changed" is false on a read without since_gen`
		case body.Gen < lo || body.Gen > hi:
			s.bad = fmt.Sprintf("generation %d outside [%d, %d]", body.Gen, lo, hi)
		default:
			if want, known := gens[body.Gen]; !known || s.dig != want {
				s.bad = fmt.Sprintf("skyline at generation %d differs from the reference (%d rows, want %d)", body.Gen, s.dig.Rows, want.Rows)
			}
		}
	}
	return gens, problems
}

// shadow is the benchmark's model of a maintained dataset: the resident
// rows, and their skyline kept up to date by brute force. An insert is
// tested against the skyline; deleting a skyline row re-examines the
// resident rows it dominated.
type shadow struct {
	resident map[string][]float64
	sky      map[string][]float64
	hash     map[string]uint64
	dig      digest
}

func newShadow(rows [][]float64) *shadow {
	sh := &shadow{resident: map[string][]float64{}, sky: map[string][]float64{}, hash: map[string]uint64{}}
	for _, r := range rows {
		sh.resident[rowKey(r)] = r
	}
	for _, r := range referenceSkyline(rows) {
		sh.addSky(r)
	}
	return sh
}

func (sh *shadow) rows() [][]float64 {
	out := make([][]float64, 0, len(sh.resident))
	for _, r := range sh.resident {
		out = append(out, r)
	}
	return out
}

func (sh *shadow) addSky(r []float64) {
	k := rowKey(r)
	h, ok := sh.hash[k]
	if !ok {
		h = rowTextHash(r)
		sh.hash[k] = h
	}
	sh.sky[k] = r
	sh.dig.add(h)
}

func (sh *shadow) dropSky(k string) {
	delete(sh.sky, k)
	sh.dig.sub(sh.hash[k])
}

// insertSky adds r to the skyline unless a skyline row dominates it,
// dropping the skyline rows r dominates.
func (sh *shadow) insertSky(r []float64) {
	for _, s := range sh.sky {
		if dominates(s, r) {
			return
		}
	}
	for k, s := range sh.sky {
		if dominates(r, s) {
			sh.dropSky(k)
		}
	}
	sh.addSky(r)
}

func (sh *shadow) apply(bt batch) error {
	for _, r := range bt.deletes {
		k := rowKey(r)
		if _, ok := sh.resident[k]; !ok {
			return fmt.Errorf("delete of a row that is not resident")
		}
		delete(sh.resident, k)
		if _, ok := sh.sky[k]; !ok {
			continue
		}
		sh.dropSky(k)
		var freed [][]float64
		for _, c := range sh.resident {
			if dominates(r, c) {
				freed = append(freed, c)
			}
		}
		sort.Slice(freed, func(i, j int) bool { return sum(freed[i]) < sum(freed[j]) })
		for _, c := range freed {
			sh.insertSky(c)
		}
	}
	for _, r := range bt.inserts {
		k := rowKey(r)
		if _, ok := sh.resident[k]; ok {
			return fmt.Errorf("insert of a row that is already resident")
		}
		sh.resident[k] = r
		sh.insertSky(r)
	}
	return nil
}
