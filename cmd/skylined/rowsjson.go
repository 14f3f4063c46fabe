package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	mrskyline "mrskyline"
)

// This file is skylined's float-row codec. Request bodies that carry rows
// ("data": [[..]]) and responses that carry skylines are dominated by
// float text, which encoding/json moves through reflection, a second
// scanner pass and one allocation per row. Here the rows are parsed
// straight from the request bytes into a few large slabs, and skyline
// rows are streamed into the response through a pooled buffer. Every
// other member still goes through encoding/json, and the results are the
// ones encoding/json gives: the same bodies accepted, the same values
// decoded, the same response bytes.

const (
	// minRead is the first buffer for a body of unknown length, and what
	// each doubling adds, as in json.Decoder.
	minRead = 512
	// maxBodyPresize bounds the buffer presized from a Content-Length
	// header; a larger body grows by doubling as it arrives, so a client
	// cannot make the server allocate a length it never sends.
	maxBodyPresize = 1 << 20
	// minSlab is the size in floats of a request's first row slab.
	minSlab = 256
	// maxFloatText is the longest float64 appendFloat writes (for example
	// -0.0000012345678901234567).
	maxFloatText = 25
)

// readBody reads r to its end. The buffer starts at size+1 bytes, where
// size is the Content-Length (-1 when unknown) capped at maxBodyPresize,
// so the read that returns io.EOF needs no growth; beyond that it doubles
// as it fills, as json.Decoder's does.
func readBody(r io.Reader, size int64) ([]byte, error) {
	n := minRead
	if size >= 0 {
		n = int(min(size, maxBodyPresize)) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf)+minRead)
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRowsBody decodes a JSON request body into v exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode(v) would, where data
// returns v's field tagged "data". The value of the top-level member
// named exactly "data" is parsed by hand; the other members are copied
// verbatim into a small object that encoding/json decodes into v, so
// they are validated as before. A body that is not an object, repeats
// "data", or reaches the data field through another key (a case variant
// such as "Data" or an escaped "data") is decoded by encoding/json
// whole instead.
func decodeRowsBody[T any](body []byte, v *T, data func(*T) *[][]float64) error {
	p := rowParser{b: body}
	p.skipSpace()
	if !p.consume('{') {
		return decodeWhole(body, v)
	}
	rest := []byte{'{'}
	var rows [][]float64
	seen, repeated := false, false
	p.skipSpace()
	if !p.consume('}') {
		for {
			p.skipSpace()
			key := p.i
			if err := p.skipString(); err != nil {
				return err
			}
			keyEnd := p.i
			p.skipSpace()
			if !p.consume(':') {
				return p.syntaxError("want ':' after an object key")
			}
			p.skipSpace()
			if string(body[key:keyEnd]) == `"data"` {
				repeated = repeated || seen
				seen = true
				var err error
				if rows, err = p.rows(); err != nil {
					return err
				}
			} else {
				val := p.i
				if err := p.skipValue(); err != nil {
					return err
				}
				if len(rest) > 1 {
					rest = append(rest, ',')
				}
				rest = append(rest, body[key:keyEnd]...)
				rest = append(rest, ':')
				rest = append(rest, body[val:p.i]...)
			}
			p.skipSpace()
			if p.consume(',') {
				continue
			}
			if p.consume('}') {
				break
			}
			return p.syntaxError("want ',' or '}' after an object member")
		}
	}
	if repeated {
		return decodeWhole(body, v)
	}
	rest = append(rest, '}')
	// The data field holds a marker while the other members decode: if
	// encoding/json changes it, some other key names the field too.
	field := data(v)
	marker := make([][]float64, 0, 1)
	*field = marker
	if err := json.Unmarshal(rest, v); err != nil {
		return err
	}
	if len(*field) != 0 || cap(*field) != 1 || &(*field)[:1][0] != &marker[:1][0] {
		return decodeWhole(body, v)
	}
	*field = rows
	return nil
}

// decodeWhole is the encoding/json decode decodeRowsBody stands in for,
// into a zeroed v.
func decodeWhole[T any](body []byte, v *T) error {
	var zero T
	*v = zero
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// rowParser walks a request body. Numbers follow the JSON grammar
// strictly and convert with strconv.ParseFloat, as encoding/json does.
type rowParser struct {
	b []byte
	i int
	// slab holds the floats of the rows parsed so far; a row is a
	// capacity-limited window on it. rowsStart is where the "data" value
	// begins and nums counts the numbers parsed since, which size the
	// next slab.
	slab      []float64
	rowsStart int
	nums      int
}

func (p *rowParser) syntaxError(msg string) error {
	if p.i >= len(p.b) {
		return errors.New("unexpected end of body")
	}
	return fmt.Errorf("invalid character %q at offset %d: %s", p.b[p.i], p.i, msg)
}

func (p *rowParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *rowParser) consume(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal advances past s if the body continues with it.
func (p *rowParser) literal(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// skipString advances past a string, finding its end only: the string
// is copied into the object encoding/json checks.
func (p *rowParser) skipString() error {
	if !p.consume('"') {
		return p.syntaxError("want a string")
	}
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '\\':
			p.i += 2
		case '"':
			p.i++
			return nil
		default:
			p.i++
		}
	}
	p.i = len(p.b)
	return p.syntaxError("")
}

// skipValue advances past a value of a member other than "data", finding
// its extent only; encoding/json checks the value itself.
func (p *rowParser) skipValue() error {
	if p.i >= len(p.b) {
		return p.syntaxError("")
	}
	switch p.b[p.i] {
	case '"':
		return p.skipString()
	case '{', '[':
		depth := 0
		for p.i < len(p.b) {
			switch p.b[p.i] {
			case '"':
				if err := p.skipString(); err != nil {
					return err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			p.i++
			if depth == 0 {
				return nil
			}
		}
		return p.syntaxError("")
	}
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return nil
		}
		p.i++
	}
	return nil
}

// rows parses the "data" value: null, or an array whose elements are
// null or arrays of numbers. A null number reads as 0, as encoding/json
// leaves a fresh float64 untouched by null.
func (p *rowParser) rows() ([][]float64, error) {
	if p.literal("null") {
		return nil, nil
	}
	if !p.consume('[') {
		return nil, p.syntaxError(`want an array of rows for "data"`)
	}
	p.rowsStart = p.i
	rows := [][]float64{}
	p.skipSpace()
	if p.consume(']') {
		return rows, nil
	}
	for {
		p.skipSpace()
		row, err := p.row()
		if err != nil {
			return nil, err
		}
		if len(rows) == cap(rows) {
			rows = slices.Grow(rows, max(8, p.left(len(rows))))
		}
		rows = append(rows, row)
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return rows, nil
		}
		return nil, p.syntaxError("want ',' or ']' after a row")
	}
}

// row parses one row into the slab and returns it with cap == len, so
// an append to it can never reach the next row.
func (p *rowParser) row() ([]float64, error) {
	if p.literal("null") {
		return nil, nil
	}
	if !p.consume('[') {
		return nil, p.syntaxError("want a row (an array of numbers)")
	}
	p.skipSpace()
	if p.consume(']') {
		return []float64{}, nil
	}
	start := len(p.slab)
	for {
		p.skipSpace()
		var f float64
		if !p.literal("null") {
			var err error
			if f, err = p.number(); err != nil {
				return nil, err
			}
		}
		if len(p.slab) == cap(p.slab) {
			p.grow(start)
			start = 0
		}
		p.slab = append(p.slab, f)
		p.nums++
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			end := len(p.slab)
			return p.slab[start:end:end], nil
		}
		return nil, p.syntaxError("want ',' or ']' after a number")
	}
}

// grow starts a new slab and moves the partial row slab[start:] into it.
func (p *rowParser) grow(start int) {
	partial := p.slab[start:]
	n := max(minSlab, p.left(p.nums), 2*len(partial))
	p.slab = append(make([]float64, 0, n), partial...)
}

// left estimates how many more items the body holds, from the bytes the
// n items parsed since rowsStart took, with a sixteenth for slack. Sizing
// the slabs and the row list by it lets a body of similar rows fill one
// or two of each.
func (p *rowParser) left(n int) int {
	if n == 0 {
		return 0
	}
	per := (p.i - p.rowsStart) / n
	if per == 0 {
		return 0
	}
	left := (len(p.b) - p.i) / per
	return left + left/16
}

// number parses a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *rowParser) number() (float64, error) {
	start := p.i
	p.consume('-')
	switch {
	case p.consume('0'):
	case p.digits() == 0:
		return 0, p.syntaxError("want a number")
	}
	if p.consume('.') && p.digits() == 0 {
		return 0, p.syntaxError("want a digit after the decimal point")
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if p.digits() == 0 {
			return 0, p.syntaxError("want a digit in the exponent")
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d does not fit a float64", p.b[start:p.i], start)
	}
	return f, nil
}

// digits advances past a run of decimal digits and returns its length.
func (p *rowParser) digits() int {
	b, i := p.b, p.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	n := i - p.i
	p.i = i
	return n
}

// rowsWriters holds the buffers responses stream through. Each flush is
// about one write to the connection: over loopback, a 1500-row skyline
// streamed through 4 KiB took as long as json.Encoder's single write,
// and through 64 KiB 17% less.
var rowsWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// writeRowsJSON writes head, then rows as a JSON array, then tail, as the
// JSON response. The bytes are the ones json.Encoder writes for the same
// value, and like json.Encoder it writes nothing when a row holds NaN or
// an infinity.
func writeRowsJSON(w http.ResponseWriter, head []byte, rows [][]float64, tail []byte) {
	w.Header().Set("Content-Type", "application/json")
	for _, row := range rows {
		for _, f := range row {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return
			}
		}
	}
	bw := rowsWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	bw.Write(head)
	if writeRows(bw, rows) == nil {
		bw.Write(tail)
		bw.Flush()
	}
	bw.Reset(nil)
	rowsWriters.Put(bw)
}

// writeRows writes rows as encoding/json does, stopping at the first
// write error (the client went away).
func writeRows(bw *bufio.Writer, rows [][]float64) error {
	if rows == nil {
		_, err := bw.WriteString("null")
		return err
	}
	bw.WriteByte('[')
	for i, row := range rows {
		if i > 0 {
			bw.WriteByte(',')
		}
		if row == nil {
			bw.WriteString("null")
			continue
		}
		bw.WriteByte('[')
		for j, f := range row {
			if bw.Available() <= maxFloatText {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			b := bw.AvailableBuffer()
			if j > 0 {
				b = append(b, ',')
			}
			bw.Write(appendFloat(b, f))
		}
		bw.WriteByte(']')
	}
	_, err := bw.WriteString("]")
	return err
}

// writeQueryResponse writes resp as writeJSON would.
func writeQueryResponse(w http.ResponseWriter, resp queryResponse) {
	// Stats holds only strings and integers, which always encode.
	stats, _ := json.Marshal(resp.Stats)
	tail := append(append([]byte(`,"stats":`), stats...), "}\n"...)
	writeRowsJSON(w, []byte(`{"skyline":`), resp.Skyline, tail)
}

// writeMaintainedSkyline writes a maintained read of a new generation
// as writeJSON(w, map[string]any{"gen": snap.Gen, "changed": true,
// "skyline": snap.Skyline}) would.
func writeMaintainedSkyline(w http.ResponseWriter, snap *mrskyline.MaintainedSnapshot) {
	head := strconv.AppendUint([]byte(`{"changed":true,"gen":`), snap.Gen, 10)
	writeRowsJSON(w, append(head, `,"skyline":`...), snap.Skyline, []byte("}\n"))
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation in 'f' format, or in 'e' format below 1e-6 or from
// 1e21 in magnitude, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
