package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/maphash"
	"sort"
)

// This file holds the benchmark's own reference for every answer. It
// shares no code with the program under test: skylines come from a
// brute-force block-nested-loop over rows pre-sorted by coordinate sum,
// and answers are compared through an order-independent digest of the
// rows' JSON text.

// dominates reports whether a is no worse than b in every dimension and
// strictly better in at least one (every dimension minimizes).
func dominates(a, b []float64) bool {
	better := false
	for i, v := range a {
		switch {
		case v > b[i]:
			return false
		case v < b[i]:
			better = true
		}
	}
	return better
}

// referenceSkyline returns the skyline of rows. Rows are visited in
// ascending coordinate-sum order, so a dominating row usually arrives
// before the rows it dominates; the window is still pruned on every
// insert, which keeps the result exact whatever the order.
func referenceSkyline(rows [][]float64) [][]float64 {
	order := make([]int, len(rows))
	sums := make([]float64, len(rows))
	for i, r := range rows {
		order[i] = i
		sums[i] = sum(r)
	}
	sort.SliceStable(order, func(a, b int) bool { return sums[order[a]] < sums[order[b]] })
	var win [][]float64
	for _, i := range order {
		win = bnlInsert(win, rows[i])
	}
	return win
}

// bnlInsert adds p to the skyline window win unless a window row
// dominates it, dropping the window rows p dominates.
func bnlInsert(win [][]float64, p []float64) [][]float64 {
	for _, w := range win {
		if dominates(w, p) {
			return win
		}
	}
	n := 0
	for _, w := range win {
		if !dominates(p, w) {
			win[n] = w
			n++
		}
	}
	return append(win[:n], p)
}

func sum(row []float64) float64 {
	s := 0.0
	for _, v := range row {
		s += v
	}
	return s
}

// filterRange keeps the rows whose value in dimension dim lies in the
// closed range [lo, hi].
func filterRange(rows [][]float64, dim int, lo, hi float64) [][]float64 {
	var out [][]float64
	for _, r := range rows {
		if r[dim] >= lo && r[dim] <= hi {
			out = append(out, r)
		}
	}
	return out
}

// project returns rows restricted to dims, in the order given.
func project(rows [][]float64, dims []int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		p := make([]float64, len(dims))
		for j, d := range dims {
			p[j] = r[d]
		}
		out[i] = p
	}
	return out
}

// digest is an order-independent fingerprint of a set of rows: their
// count and the wrapping sum of a keyed hash of each row's JSON text.
type digest struct {
	Rows int
	Sum  uint64
}

var hashSeed = maphash.MakeSeed()

func rowHash(text []byte) uint64 { return maphash.Bytes(hashSeed, text) }

// rowTextHash hashes a row as encoding/json writes it.
func rowTextHash(row []float64) uint64 {
	b, err := json.Marshal(row)
	if err != nil {
		panic(err) // only NaN or Inf fail, and generated rows hold neither
	}
	return rowHash(b)
}

func (d *digest) add(h uint64) { d.Rows++; d.Sum += h }
func (d *digest) sub(h uint64) { d.Rows--; d.Sum -= h }

func digestRows(rows [][]float64) digest {
	var d digest
	for _, r := range rows {
		d.add(rowTextHash(r))
	}
	return d
}

var skylineKey = []byte(`"skyline":`)

// scanSkyline digests the "skyline" array of a JSON response body without
// decoding its numbers, and returns the body with that array replaced by
// null, which is small enough to keep for decoding after the timed
// window. It is cheap enough to run on the load generator's goroutines.
func scanSkyline(body []byte) (digest, []byte, error) {
	var d digest
	i := bytes.Index(body, skylineKey)
	if i < 0 {
		return d, nil, errors.New(`response has no "skyline"`)
	}
	j := i + len(skylineKey)
	keyEnd := j
	rest := func(end int) []byte {
		out := make([]byte, 0, keyEnd+4+len(body)-end)
		out = append(out, body[:keyEnd]...)
		out = append(out, "null"...)
		return append(out, body[end:]...)
	}
	if bytes.HasPrefix(body[j:], []byte("null")) {
		return d, rest(j + 4), nil
	}
	bad := errors.New(`malformed "skyline" array`)
	if j >= len(body) || body[j] != '[' {
		return d, nil, bad
	}
	j++
	if j < len(body) && body[j] == ']' {
		return d, rest(j + 1), nil
	}
	for {
		if j >= len(body) || body[j] != '[' {
			return d, nil, bad
		}
		k := bytes.IndexByte(body[j:], ']')
		if k < 0 {
			return d, nil, bad
		}
		d.add(rowHash(body[j : j+k+1]))
		j += k + 1
		if j >= len(body) {
			return d, nil, bad
		}
		switch body[j] {
		case ',':
			j++
		case ']':
			return d, rest(j + 1), nil
		default:
			return d, nil, bad
		}
	}
}
