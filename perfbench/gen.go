package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// rowGen draws rows in [0,1)^dim from a seeded source. Every row it
// returns is distinct from all rows it returned before, so a delete names
// exactly one resident row and a skyline is a set, not a multiset.
type rowGen struct {
	rng    *rand.Rand
	dim    int
	anti   bool
	seen   map[string]bool
	planes []float64 // stratified plane positions not yet used
}

func newRowGen(seed int64, dim int, anti bool) *rowGen {
	return &rowGen{rng: rand.New(rand.NewSource(seed)), dim: dim, anti: anti, seen: make(map[string]bool)}
}

// planeSpread is the standard deviation of an anticorrelated row's plane
// position (its coordinate mean) around 0.5. At 0.038 a 5000×4 sample has
// a skyline of about 1150 rows and a 10000×4 sample one of about 1600.
const planeSpread = 0.038

// next returns a fresh row.
func (g *rowGen) next() []float64 {
	for {
		row := g.draw()
		if k := rowKey(row); !g.seen[k] {
			g.seen[k] = true
			return row
		}
	}
}

// rows returns n fresh rows.
func (g *rowGen) rows(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// planeBlock is how many plane positions are stratified together.
const planeBlock = 1024

// plane returns the next plane position. Positions are drawn in blocks
// by stratified sampling — one normal quantile from each of planeBlock
// equal-probability strata, in shuffled order — so the share of rows near
// the low tail, which sets the skyline size, varies little between seeds.
func (g *rowGen) plane() float64 {
	if len(g.planes) == 0 {
		g.planes = make([]float64, planeBlock)
		for i := range g.planes {
			u := (float64(i) + g.rng.Float64()) / planeBlock
			g.planes[i] = 0.5 + planeSpread*math.Sqrt2*math.Erfinv(2*u-1)
		}
		g.rng.Shuffle(len(g.planes), func(i, j int) { g.planes[i], g.planes[j] = g.planes[j], g.planes[i] })
	}
	v := g.planes[len(g.planes)-1]
	g.planes = g.planes[:len(g.planes)-1]
	return v
}

// draw returns one row: uniform for independent data; for anticorrelated
// data, a uniform row shifted so its mean sits at a plane position near
// 0.5, redrawn around the same plane until it lies inside the unit box.
// Rows close to one plane dominate each other rarely, which makes the
// skyline large.
func (g *rowGen) draw() []float64 {
	row := make([]float64, g.dim)
	if !g.anti {
		for i := range row {
			row[i] = g.rng.Float64()
		}
		return row
	}
	v := g.plane()
	for {
		mean := 0.0
		for i := range row {
			row[i] = g.rng.Float64()
			mean += row[i]
		}
		mean /= float64(g.dim)
		inside := true
		for i := range row {
			row[i] += v - mean
			if row[i] < 0 || row[i] >= 1 {
				inside = false
			}
		}
		if inside {
			return row
		}
	}
}

// rowKey identifies a row by the exact bits of its values.
func rowKey(row []float64) string {
	b := make([]byte, 8*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}
