package mrskyline

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mrskyline/internal/baseline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// kernelTotals reads the kernel metrics every task publishes: the
// algo.dominance.tests counter and the sample count of algo.insert.ns.
func kernelTotals(reg *obs.Registry) (pairs, inserts int64) {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == window.MetricInsertNs {
			inserts = h.Count
		}
	}
	return reg.Counter(window.MetricDominanceTests), inserts
}

// incomparableRows returns n rows of which none dominates another: the
// first two coordinates run in opposite directions along the line
// x + y = 1. Every row is a skyline row, so no partition is pruned, no
// window ever drops a row, and the number of Inserts each algorithm makes
// follows from its data flow alone.
func incomparableRows(n int) tuple.List {
	rows := datagen.Generate(datagen.Independent, n, 3, 5)
	for i, r := range rows {
		r[0] = float64(i) / float64(n)
		r[1] = float64(n-i) / float64(n)
	}
	return rows
}

// TestKernelTalliesExact runs the kernel-instrumented algorithms on an
// engine carrying a tracer. The registry's algo.dominance.tests must equal
// the dominance-test task counters the job summed, and on rows that are
// all skyline rows algo.insert.ns must hold one sample per Insert: each
// row once into its mapper's window and once more into every reducer
// window it is shuffled to.
func TestKernelTalliesExact(t *testing.T) {
	newEngine := func() (*mapreduce.Engine, *obs.Registry) {
		c, err := cluster.Uniform(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng := mapreduce.NewEngine(c)
		tr := obs.New()
		eng.SetTrace(tr)
		return eng, tr.Metrics()
	}
	coreCfg := func(eng *mapreduce.Engine) core.Config {
		return core.Config{Engine: eng, PPD: 4, NumMappers: 4, NumReducers: 3}
	}
	// gpmrsShuffled is how many rows MR-GPMRS's mappers send on, when no
	// mapper drops any: each row goes to every merged group holding its
	// partition.
	gpmrsShuffled := func(data tuple.List) int64 {
		eng, _ := newEngine()
		cfg := coreCfg(eng)
		g, err := grid.New(3, cfg.PPD)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := core.BuildBitstring(&cfg, g, mapreduce.TupleInput(data), false)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, mg := range grid.MergeGroups(g.IndependentGroups(prep.Bitstring), cfg.NumReducers, cfg.Merge) {
			for _, r := range data {
				if mg.HasPartition(g.Locate(r)) {
					n++
				}
			}
		}
		return n
	}

	type run func(eng *mapreduce.Engine, data tuple.List) (dominanceTests int64, err error)
	algos := []struct {
		name string
		run  run
		// shuffled is the rows the reducers insert when every row is a
		// skyline row.
		shuffled func(data tuple.List) int64
	}{
		{"MR-GPMRS", func(eng *mapreduce.Engine, data tuple.List) (int64, error) {
			_, st, err := core.GPMRS(coreCfg(eng), data)
			if err != nil {
				return 0, err
			}
			return st.DominanceTests, nil
		}, gpmrsShuffled},
		{"MR-GPSRS", func(eng *mapreduce.Engine, data tuple.List) (int64, error) {
			_, st, err := core.GPSRS(coreCfg(eng), data)
			if err != nil {
				return 0, err
			}
			return st.DominanceTests, nil
		}, func(data tuple.List) int64 { return int64(len(data)) }},
		{"MR-BNL", func(eng *mapreduce.Engine, data tuple.List) (int64, error) {
			_, st, err := baseline.MRBNL(baseline.Config{Engine: eng, NumMappers: 4}, data)
			if err != nil {
				return 0, err
			}
			return st.DominanceTests, nil
		}, func(data tuple.List) int64 { return int64(len(data)) }},
	}
	datasets := map[string]tuple.List{
		"anticorrelated": datagen.Generate(datagen.AntiCorrelated, 2000, 3, 3),
		"independent":    datagen.Generate(datagen.Independent, 2000, 3, 4),
		"incomparable":   incomparableRows(600),
	}
	for _, a := range algos {
		for dname, data := range datasets {
			t.Run(a.name+"/"+dname, func(t *testing.T) {
				eng, reg := newEngine()
				want, err := a.run(eng, data)
				if err != nil {
					t.Fatal(err)
				}
				pairs, inserts := kernelTotals(reg)
				if want == 0 || pairs != want {
					t.Errorf("%s = %d, task counters sum to %d", window.MetricDominanceTests, pairs, want)
				}
				if dname == "incomparable" {
					if wantIns := int64(len(data)) + a.shuffled(data); inserts != wantIns {
						t.Errorf("%s holds %d samples, want %d Inserts", window.MetricInsertNs, inserts, wantIns)
					}
				}
			})
		}
	}
}

// TestServiceKernelTalliesConcurrent runs concurrent queries on one
// Service: every task of every query publishes its tally into the one
// registry, and none may be lost. Each query shape is first run alone to
// learn what it adds; the concurrent totals must be the exact sums, and
// algo.dominance.tests must equal the queries' own dominance-test stats.
func TestServiceKernelTalliesConcurrent(t *testing.T) {
	svc, err := NewService(ServiceConfig{Nodes: 2, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := svc.trace.Metrics()
	data, err := Generate("anticorrelated", 600, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	algos := []Algorithm{GPMRS, GPSRS, MRBNL}
	type delta struct{ pairs, inserts int64 }
	solo := make([]delta, len(algos))
	var statsSum int64
	for i, a := range algos {
		p0, i0 := kernelTotals(reg)
		res, err := svc.Compute(context.Background(), data, Options{Algorithm: a})
		if err != nil {
			t.Fatal(err)
		}
		p1, i1 := kernelTotals(reg)
		solo[i] = delta{p1 - p0, i1 - i0}
		if solo[i].pairs != res.Stats.DominanceTests || solo[i].inserts == 0 {
			t.Fatalf("%s alone: registry +%d tests (+%d inserts), query stats %d", a, solo[i].pairs, solo[i].inserts, res.Stats.DominanceTests)
		}
		statsSum += res.Stats.DominanceTests
	}

	const perAlgo = 6
	pairs0, inserts0 := kernelTotals(reg)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		tests int64
		want  delta
	)
	for i, a := range algos {
		want.pairs += perAlgo * solo[i].pairs
		want.inserts += perAlgo * solo[i].inserts
		for k := 0; k < perAlgo; k++ {
			wg.Add(1)
			go func(a Algorithm) {
				defer wg.Done()
				res, err := svc.Compute(context.Background(), data, Options{Algorithm: a})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				tests += res.Stats.DominanceTests
				mu.Unlock()
			}(a)
		}
	}
	wg.Wait()
	pairs, inserts := kernelTotals(reg)
	if got := (delta{pairs - pairs0, inserts - inserts0}); got != want {
		t.Errorf("concurrent queries added %+v to the registry, want %+v", got, want)
	}
	if pairs != statsSum+tests {
		t.Errorf("%s = %d, queries report %d", window.MetricDominanceTests, pairs, statsSum+tests)
	}
}

// TestServiceMemoryFlat is a soak test of a long-lived Service: many small
// queries must retain no spans, and the live heap after a collection must
// stay flat once the service has warmed up.
func TestServiceMemoryFlat(t *testing.T) {
	const (
		warm    = 500
		queries = 3000
		maxGrow = 2 << 20
	)
	svc, err := NewService(ServiceConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Generate("independent", 100, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var base int64
	for i := 1; i <= queries; i++ {
		if _, err := svc.Compute(context.Background(), data, Options{}); err != nil {
			t.Fatal(err)
		}
		if i == warm {
			base = heap()
		}
	}
	grown := heap() - base
	if n := len(svc.trace.Spans()); n != 0 {
		t.Errorf("service tracer holds %d spans after %d queries", n, queries)
	}
	if grown > maxGrow {
		t.Errorf("live heap grew %d KiB between query %d and %d (limit %d KiB)",
			grown>>10, warm, queries, maxGrow>>10)
	}
}
