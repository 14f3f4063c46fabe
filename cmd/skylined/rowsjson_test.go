package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	mrskyline "mrskyline"
)

// codecBodies are request bodies at the edges of the hand-parsed "data"
// member; they seed the differential fuzz target too.
var codecBodies = []string{
	`{"data":[[1,2],[3,4]],"algorithm":"MR-GPSRS"}`,
	`{"data":[]}`,
	`{"data":null}`,
	`{"algorithm":"MR-BNL"}`,
	`{}`,
	`{"data":[null,[1]]}`,
	`{"data":[[null,2]]}`,
	`{"data":[[]]}`,
	`{"data":[[-0,0,-0.0e5]]}`,
	`{"data":[[1e400]]}`,
	`{"data":[[-1e400]]}`,
	`{"data":[[1e-400,5e-324,1.7976931348623157e308]]}`,
	`{"data":[["1"]]}`,
	`{"data":[[01]]}`,
	`{"data":[[1.]]}`,
	`{"data":[[.5]]}`,
	`{"data":[[-]]}`,
	`{"data":[[1e]]}`,
	`{"data":[[+1]]}`,
	`{"data":[[1,]]}`,
	`{"data":[[,1]]}`,
	`{"data":[[1],]}`,
	`{"data":[[[1]]]}`,
	`{"data":[[true]]}`,
	`{"data":[{}]}`,
	`{"data":5}`,
	`{"data":"x"}`,
	`{"data":[[nullx]]}`,
	`{"Data":[[9]],"data":[[1]]}`,
	`{"data":[[1]],"Data":[[9]]}`,
	`{"data":[[1]],"Data":null}`,
	`{"data":[[1]],"DATA":[]}`,
	`{"\u0064ata":[[1]]}`,
	`{"data":[[1]],"\u0064ata":[[2]]}`,
	`{"\u0064ata":[[2]],"data":[[1]]}`,
	`{"data":[[1]],"\u0044ata":null}`,
	`{"data":[[7]]}`,
	`{"data":[[1]],"data":[[7]]}`,
	`{"data":[[5]],"data":[[null]]}`,
	`{"data":[[1,2]],"data":[[3]]}`,
	`{"algorithm":"\"data\":[[1]]","data":[[2]]}`,
	`{"dataset":"d","data":[[1]]}`,
	`{"data":[[1]]} trailing bytes`,
	`{"data":[[1]]}{"data":[[2]]}`,
	" \t\r\n{ \n\"data\" \t: \r[ [ 1 , 2 ] , [ 3 ,4 ]\n ] ,\"ppd\" : 3 } \n",
	`[[1,2]]`,
	`null`,
	``,
	`   `,
	`"data"`,
	`{"data":[[1]]`,
	`{"data":[[1]],}`,
	`{"data" [[1]]}`,
	`{,"data":[[1]]}`,
	`{"a":1 "data":[[1]]}`,
	`{"algorithm":5,"data":[[1]]}`,
	`{"constraints":[{"min":0.5},{}],"dims":[0,1],"maximize":[true,false],"data":[[1,2]]}`,
	`{"name":"d","data":[[1,2]],"maintain":true,"maintain_dim":2}`,
	`{"name":"d","generate":{"distribution":"independent","card":5,"dim":2,"seed":1}}`,
	`{"x":{"y":[1,{"z":"]}"}]},"data":[[1]]}`,
	`{"x":"\\","data":[[1]]}`,
	`{"x":"a\"b","data":[[1]]}`,
	`{"x":tru,"data":[[1]]}`,
	`{"x":[1},"data":[[1]]}`,
	"{\"x\":\"\x01\",\"data\":[[1]]}",
}

// checkDecodeParity decodes body as a queryRequest and a datasetRequest
// with decodeRowsBody and with json.Decoder, and fails unless both
// reject it or both give equal structs with bit-identical floats.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	checkParity(t, body, func(q *queryRequest) *[][]float64 { return &q.Data })
	checkParity(t, body, func(d *datasetRequest) *[][]float64 { return &d.Data })
}

func checkParity[T any](t *testing.T, body []byte, data func(*T) *[][]float64) {
	t.Helper()
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := decodeRowsBody(body, &got, data)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("%T body %q: encoding/json error %v, codec error %v", want, body, wantErr, gotErr)
	case wantErr != nil:
		return
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%T body %q: codec decoded %+v, encoding/json %+v", want, body, got, want)
	}
	// DeepEqual holds -0 == 0; the floats must be the same bits.
	for i, row := range *data(&want) {
		for j, f := range row {
			if g := (*data(&got))[i][j]; math.Float64bits(g) != math.Float64bits(f) {
				t.Fatalf("%T body %q: row %d col %d is %v, want %v", want, body, i, j, g, f)
			}
		}
	}
}

func TestCodecDecodeParity(t *testing.T) {
	for _, body := range codecBodies {
		checkDecodeParity(t, []byte(body))
	}
	// Rows spanning several slabs, with full-length floats.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, 3000} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64(), -rng.NormFloat64() * 1e10, rng.ExpFloat64() * 1e-9}
		}
		body, _ := json.Marshal(map[string]any{"data": rows, "algorithm": "MR-BNL"})
		checkDecodeParity(t, body)
		var q queryRequest
		if err := decodeRowsBody(body, &q, func(q *queryRequest) *[][]float64 { return &q.Data }); err != nil {
			t.Fatal(err)
		}
		for _, row := range q.Data {
			if cap(row) != len(row) {
				t.Fatalf("%d rows: row %v has cap %d, so an append would reach the next row", n, row, cap(row))
			}
		}
	}
}

// TestCodecDecodeRejectsOverHTTP checks that decode errors, on the
// query and dataset endpoints, answer 400 "bad request body: ...".
func TestCodecDecodeRejectsOverHTTP(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	for _, c := range []struct{ path, body string }{
		{"/v1/skyline", `{"data":[[1e400]]}`},
		{"/v1/skyline", `{"data":[[01]]}`},
		{"/v1/skyline", `{"data":[["1"]]}`},
		{"/v1/skyline", `{"data":[[1]]`},
		{"/v1/skyline", ``},
		{"/v1/datasets", `{"name":"d","data":[[1.]]}`},
		{"/v1/datasets", `{"name":"d","data":[[[1]]]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e struct{ Error string }
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || !strings.HasPrefix(e.Error, "bad request body: ") {
			t.Errorf("POST %s %q: status %d body %s, want 400 bad request body", c.path, c.body, resp.StatusCode, raw)
		}
	}
}

func FuzzDecodeQueryBody(f *testing.F) {
	for _, body := range codecBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body)
	})
}

func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	for _, c := range []struct {
		name string
		r    io.Reader
		size int64
	}{
		{"exact length", bytes.NewReader(body), int64(len(body))},
		{"unknown length, one byte per read", iotest.OneByteReader(bytes.NewReader(body)), -1},
		// A claimed length far beyond the body presizes only up to
		// maxBodyPresize.
		{"huge claimed length", bytes.NewReader(body), 1 << 50},
		{"short claimed length", bytes.NewReader(body), 10},
	} {
		got, err := readBody(c.r, c.size)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: read %d bytes, err %v; want the %d-byte body", c.name, len(got), err, len(body))
		}
	}
	if _, err := readBody(iotest.ErrReader(io.ErrUnexpectedEOF), -1); err == nil {
		t.Error("read error not returned")
	}
}

// codecFloats are float64s at the edges of encoding/json's format rule.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1e-6, -1e-6, 9.999e-7, 1e-7, 1e20, 1e21, -1e21,
	999999999999999900000, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 0.1, 123456.78901234567, -0.0000012345678901234567, 1.2345678901234567e-308,
}

func encoderText(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCodecEncodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := make([][]float64, 2000)
	for i := range random {
		row := make([]float64, 4)
		for j := range row {
			switch rng.Intn(3) {
			case 0:
				row[j] = rng.Float64()
			case 1:
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			default:
				row[j] = math.Float64frombits(rng.Uint64())
				if math.IsNaN(row[j]) || math.IsInf(row[j], 0) {
					row[j] = 0
				}
			}
		}
		random[i] = row
	}
	for _, f := range append(codecFloats, random[0]...) {
		if n := len(appendFloat(nil, f)); n > maxFloatText {
			t.Errorf("%v is %d bytes, more than maxFloatText", f, n)
		}
	}
	stats := mrskyline.Stats{Algorithm: "Hybrid(MR-GPSRS)<&>", Runtime: 1234567, SkylineSize: 3, DominanceTests: 1 << 40}
	for name, rows := range map[string][][]float64{
		"nil":      nil,
		"empty":    {},
		"boundary": {codecFloats, {}, nil, {math.Copysign(0, -1)}},
		"random":   random,
	} {
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, queryResponse{Skyline: rows, Stats: stats})
		if got, want := rec.Body.String(), encoderText(t, queryResponse{Skyline: rows, Stats: stats}); got != want {
			t.Errorf("%s query response:\n got %.300s\nwant %.300s", name, got, want)
		}
		snap := &mrskyline.MaintainedSnapshot{Gen: 1<<64 - 1, Skyline: rows}
		rec = httptest.NewRecorder()
		writeMaintainedSkyline(rec, snap)
		want := encoderText(t, map[string]any{"gen": snap.Gen, "changed": true, "skyline": snap.Skyline})
		if got := rec.Body.String(); got != want {
			t.Errorf("%s maintained read:\n got %.300s\nwant %.300s", name, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
	// encoding/json writes nothing for a value it cannot encode.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, queryResponse{Skyline: [][]float64{{1}, {bad}}})
		if rec.Body.Len() != 0 {
			t.Errorf("%v: wrote %q, want nothing", bad, rec.Body.String())
		}
	}
}

// inlineQueryBody is the body of the benchmark's inline query: rows×dim
// uniform floats, each printed with its full 17 significant digits.
func inlineQueryBody(rows, dim int) []byte {
	data, err := mrskyline.Generate("independent", rows, dim, 1)
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(map[string]any{"data": data, "algorithm": "MR-GPSRS"})
	if err != nil {
		panic(err)
	}
	return body
}

func BenchmarkDecodeQueryBody(b *testing.B) {
	body := inlineQueryBody(5000, 4)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := http.NewRequest(http.MethodPost, "/v1/skyline", bytes.NewReader(body))
		var q queryRequest
		if err := decodeRequest(r, &q, func(q *queryRequest) *[][]float64 { return &q.Data }); err != nil {
			b.Fatal(err)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

func BenchmarkWriteSkyline(b *testing.B) {
	data, err := mrskyline.Generate("anticorrelated", 1150, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	resp := queryResponse{Skyline: data, Stats: mrskyline.Stats{Algorithm: "MR-GPMRS", SkylineSize: len(data)}}
	w := discardWriter{http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeQueryResponse(w, resp)
	}
}
