package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"time"
)

// request is one HTTP request the load generator can send.
type request struct {
	method, path string
	body         []byte
	write        bool // a delta batch; otherwise a read (query or skyline GET)
	id           int  // query template index for reads, batch index for writes
}

// sample is one request as the load generator saw it. Times are offsets
// from the run's epoch; latency runs from due (the schedule, open loop)
// or start (closed loop) to the last response byte.
type sample struct {
	req      *request
	measured bool
	due      time.Duration
	start    time.Duration
	first    time.Duration // first response byte
	end      time.Duration // last response byte, or the transport error
	status   int
	err      error
	respLen  int
	dig      digest // the response's skyline rows (reads)
	rest     []byte // the response without its skyline rows
	scanErr  error
	bad      string // why verification rejected it ("" = accepted)
}

func (s *sample) latency() time.Duration { return s.end - s.due }

// failed reports whether the request counts against error_ratio.
func (s *sample) failed() bool {
	return s.err != nil || s.status != http.StatusOK || s.scanErr != nil || s.bad != ""
}

// client sends requests to one skylined over at most two connections.
type client struct {
	http  *http.Client
	base  string
	epoch time.Time
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func (c *client) now() time.Duration { return time.Since(c.epoch) }

// do sends r and fills s. The body is read into buf (reused across a
// goroutine's requests); skyline digests are taken only after the last
// byte arrived, so they stay outside the latency.
func (c *client) do(ctx context.Context, r *request, s *sample, buf *bytes.Buffer) {
	s.req = r
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, body)
	if err != nil {
		s.err = err
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { s.first = c.now() },
	}))
	s.start = c.now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.end = c.now()
		s.err = err
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.end = c.now()
	s.status = resp.StatusCode
	s.respLen = buf.Len()
	if err != nil {
		s.err = err
		return
	}
	if s.status == http.StatusOK && !r.write {
		s.dig, s.rest, s.scanErr = scanSkyline(buf.Bytes())
	} else {
		s.rest = append([]byte(nil), buf.Bytes()...)
	}
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one completed, cycling through reqs (client i
// starts at reqs[i]). It stops issuing after d and returns once every
// request in flight has completed.
func (c *client) closedLoop(ctx context.Context, reqs []*request, clients int, d time.Duration, measured bool) []sample {
	stop := c.now() + d
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := k; c.now() < stop && ctx.Err() == nil; i++ {
				s := sample{measured: measured}
				c.do(ctx, reqs[i%len(reqs)], &s, &buf)
				s.due = s.start
				out[k] = append(out[k], s)
			}
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// stream is one open-loop request stream: request i is due at
// offset + i·period from the phase start.
type stream struct {
	offset, period time.Duration
	reqs           []*request
}

// spinWindow is how long before a due time the open loop stops sleeping
// and polls the clock. Timer wake-ups on a virtualised host commonly run
// 0.3–1 ms late; slept through, that lateness would be charged to the
// server as latency.
const spinWindow = time.Millisecond

// openLoop runs one goroutine per stream. Each sends its requests at their
// due times, or immediately when the previous request ran past the next
// due time; latency counts from the due time, so a stall is charged to
// every request it delays. It returns once every stream has finished.
func (c *client) openLoop(ctx context.Context, streams []stream, measured bool) []sample {
	t0 := c.now()
	out := make([][]sample, len(streams))
	var wg sync.WaitGroup
	for k, st := range streams {
		wg.Add(1)
		go func(k int, st stream) {
			defer wg.Done()
			var buf bytes.Buffer
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for i, r := range st.reqs {
				due := t0 + st.offset + time.Duration(i)*st.period
				if wait := due - c.now() - spinWindow; wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				for c.now() < due {
					runtime.Gosched()
				}
				s := sample{measured: measured, due: due}
				c.do(ctx, r, &s, &buf)
				out[k] = append(out[k], s)
			}
		}(k, st)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}
