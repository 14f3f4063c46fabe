package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one skylined process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *logWatch
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// logWatch collects skylined's stderr and reports the listen address
// from its "listening on" line.
type logWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	tail  []string
	addr  chan string
	found bool
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		line, err := l.buf.ReadString('\n')
		if err != nil {
			l.buf.WriteString(line) // incomplete line: keep for the next write
			break
		}
		line = strings.TrimSpace(line)
		if l.tail = append(l.tail, line); len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
		if i := strings.Index(line, "listening on "); i >= 0 && !l.found {
			l.found = true
			f := strings.Fields(line[i+len("listening on "):])
			if len(f) > 0 {
				l.addr <- f[0]
			}
		}
	}
	return len(p), nil
}

func (l *logWatch) lastLines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// startServer launches skylined on a free loopback port and returns once
// it has announced its address. The process is killed if the benchmark
// dies first.
func startServer(bin string, args []string) (*server, error) {
	lw := &logWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = lw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting skylined: %w", err)
	}
	s := &server{cmd: cmd, log: lw, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case addr := <-lw.addr:
		s.base = "http://" + addr
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("skylined exited before listening (%v):\n%s", s.err, lw.lastLines())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("skylined did not start listening within 60s")
	}
}

// stop asks skylined to shut down gracefully and waits until it has
// exited, killing it if it takes longer than 30 seconds.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("skylined ignored SIGTERM for 30s and was killed")
	}
	var ee *exec.ExitError
	if s.err != nil && !errors.As(s.err, &ee) {
		return s.err
	}
	return nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("skylined /healthz did not answer 200 within 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends a JSON body and returns the response body, failing on any
// status but 200.
func (s *server) post(c *http.Client, path string, body []byte) ([]byte, error) {
	resp, err := c.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// histSum is the exact part of one /v1/stats histogram.
type histSum struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// counters is one /v1/stats snapshot: counters and exact histogram sums.
type counters struct {
	c map[string]int64
	h map[string]histSum
}

func (s *server) stats(c *http.Client) (counters, error) {
	var body struct {
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
			Histograms []struct {
				Name string `json:"name"`
				histSum
			} `json:"histograms"`
		} `json:"metrics"`
	}
	out := counters{c: map[string]int64{}, h: map[string]histSum{}}
	resp, err := c.Get(s.base + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return out, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	for _, m := range body.Metrics.Counters {
		out.c[m.Name] = m.Value
	}
	for _, m := range body.Metrics.Histograms {
		out.h[m.Name] = m.histSum
	}
	return out, nil
}

// delta returns after − before for every counter and histogram sum.
func (after counters) delta(before counters) counters {
	d := counters{c: map[string]int64{}, h: map[string]histSum{}}
	for k, v := range after.c {
		d.c[k] = v - before.c[k]
	}
	for k, v := range after.h {
		b := before.h[k]
		d.h[k] = histSum{Count: v.Count - b.Count, Sum: v.Sum - b.Sum}
	}
	return d
}

// procSnap is what /proc says about a process.
type procSnap struct {
	cpuTicks int64 // utime + stime, in clock ticks
	rssKiB   int64 // VmRSS
	hwmKiB   int64 // VmHWM, the peak resident set
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procSnap, error) {
	var p procSnap
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime the 12th and stime the 13th.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return p, errors.New("malformed /proc/<pid>/stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return p, errors.New("short /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return p, fmt.Errorf("parsing /proc/<pid>/stat: %w", err)
	}
	p.cpuTicks = ut + st
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		v, _ := strconv.ParseInt(f[1], 10, 64) // non-numeric lines are not the ones read below
		switch f[0] {
		case "VmRSS:":
			p.rssKiB = v
		case "VmHWM:":
			p.hwmKiB = v
		}
	}
	return p, sc.Err()
}
