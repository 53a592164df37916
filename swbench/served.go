package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/wire"
)

// setups is how many times a run sets the system up; setup_s is their
// median. The last set-up is the one measured.
const setups = 7

// daemon is one streamworksd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	exited chan struct{}
}

// startDaemon execs streamworksd on a free loopback port with the served
// workloads' configuration: two shards, retention at the widest query
// window, and a write-ahead log with interval fsync in a fresh directory.
// The subscriber buffer holds about a second of matches at full load: the
// subscriber shares the two CPUs with a saturated daemon, and with the
// default 256 it is evicted within the first closed-loop second on
// news-served.
func startDaemon(bin, work string, sp spec, obsOn bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "data-")
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-shards", "2",
		"-retention", sp.window.String(),
		"-data-dir", dir,
		"-fsync", "interval",
		"-sub-buffer", "16384",
	}
	if obsOn {
		args = append(args, "-obs")
	}
	logf, err := os.Create(filepath.Join(work, "daemon.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), dir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until the daemon answers.
func (d *daemon) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("streamworksd exited during start-up (see daemon.log)")
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("streamworksd not healthy after 20s")
}

// statusMB reads a memory field of the daemon's /proc status, such as
// VmRSS or VmHWM, in MB.
func (d *daemon) statusMB(field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, waits
// for the process to end and removes its data directory. The sync makes
// the file system finish freeing the log (on a disk mounted with discard,
// the trim) now, not during the next run's measured phases.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
	syscall.Sync()
}

// served drives one daemon session: set-up, warm-up, the open-loop latency
// phase and the closed-loop throughput phase.
type served struct {
	sp     spec
	in     *inputs
	d      *daemon
	c      *client.Client
	ingest *http.Client // the one ingest connection
	ctl    *http.Client
	res    *session

	sub      *client.Subscription
	readDone chan struct{}
	closing  atomic.Bool
	received atomic.Uint64
	openT0   atomic.Int64 // open-loop schedule start, unix ns
	openLo   int          // first open-loop batch
	openHi   int
	every    time.Duration
}

func runServed(bin, work string, sp spec, in *inputs, rate float64, phase time.Duration, obsOn bool) (*session, error) {
	res := newSession()
	s := &served{sp: sp, in: in, res: res}
	// The open-loop phase's batches and spacing are fixed before the
	// subscriber starts reading, which uses them.
	s.every = time.Duration(float64(sp.batch) / rate * float64(time.Second))
	s.openLo = in.firstBatchAfterWarm()
	s.openHi = min(s.openLo+int(phase/s.every), len(in.batches))
	res.openLen = s.openHi - s.openLo
	// Throwaway set-ups first; the last one is kept and measured.
	for i := 0; i < setups; i++ {
		if err := s.setup(bin, work, obsOn); err != nil {
			return nil, err
		}
		if i < setups-1 {
			s.teardown()
		}
	}
	defer s.teardown()

	if err := s.closedLoop(0, in.firstBatchAfterWarm(), time.Time{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var err error
	if res.afterWarm, err = s.barrier(); err != nil {
		return nil, err
	}
	s.quiesce()

	stopRSS := s.sampleRSS()
	err = s.openLoop()
	stopRSS()
	if err != nil {
		return nil, err
	}
	if res.afterOpen, err = s.barrier(); err != nil {
		return nil, err
	}

	start := time.Now()
	res.closedStart = start
	deadline := start.Add(phase)
	if err := s.closedLoop(s.openHi, len(in.batches), deadline); err != nil {
		return nil, err
	}
	if res.final, err = s.barrier(); err != nil {
		return nil, err
	}
	res.closedSecs = time.Since(start).Seconds()
	res.closedEdges = in.batches[res.sentHi-1].hi - in.batches[s.openHi].lo
	res.closedExhausted = res.sentHi == len(in.batches) && time.Now().Before(deadline)
	s.quiesce()
	res.peakMB = s.d.statusMB("VmHWM")
	s.closing.Store(true)
	s.sub.Close()
	<-s.readDone
	return res, nil
}

func (s *served) setup(bin, work string, obsOn bool) (err error) {
	t0 := time.Now()
	d, err := startDaemon(bin, work, s.sp, obsOn)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	s.d = d
	s.ingest = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	s.ctl = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	if err := d.waitHealthy(s.ctl); err != nil {
		return err
	}
	s.c = client.New(d.base, client.WithTransport(client.TransportBinary), client.WithHTTPClient(s.ctl))
	ctx := context.Background()
	var reg []float64
	for _, q := range s.in.queries {
		r0 := time.Now()
		if _, err := s.c.RegisterQuery(ctx, q); err != nil {
			return fmt.Errorf("registering %s: %w", q.Name(), err)
		}
		reg = append(reg, ms(time.Since(r0)))
	}
	sub, err := client.New(d.base, client.WithTransport(client.TransportBinary)).SubscribeMatches(ctx, "")
	if err != nil {
		return fmt.Errorf("subscribing: %w", err)
	}
	s.res.setup = append(s.res.setup, time.Since(t0).Seconds())
	s.res.registerMS = reg
	s.sub = sub
	s.readDone = make(chan struct{})
	s.closing.Store(false)
	s.received.Store(0)
	s.res.delivered = map[string]digest{}
	s.res.latency = nil
	go s.read()
	return nil
}

func (s *served) teardown() {
	s.closing.Store(true)
	s.d.stop()
	s.sub.Close()
	<-s.readDone
	s.ingest.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
}

// read consumes the match subscription: it digests every report and, for a
// match whose latest edge went out in the open-loop phase, records the time
// from that batch's scheduled send to now.
func (s *served) read() {
	defer close(s.readDone)
	for {
		rep, err := s.sub.Next()
		now := time.Now()
		if err != nil {
			if !s.closing.Load() {
				s.res.evicted++
				s.res.errors = append(s.res.errors, fmt.Sprintf("match stream ended early: %v", err))
			}
			return
		}
		d := s.res.delivered[rep.Query]
		d.add(rep.Query, rep.Signature)
		s.res.delivered[rep.Query] = d
		if b := s.in.lastBatch(rep.EdgeIDs); b >= s.openLo && b < s.openHi {
			if t0 := s.openT0.Load(); t0 != 0 {
				due := schedule{start: time.Unix(0, t0), every: s.every}.due(b - s.openLo)
				s.res.latency = append(s.res.latency, latencySample{query: rep.Query, batch: b - s.openLo, ms: ms(now.Sub(due))})
			}
		}
		s.received.Add(1)
	}
}

// post sends one pre-encoded batch body. It returns the HTTP status.
func (s *served) post(b int, wait bool) (int, error) {
	url := s.d.base + "/v1/edges"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(s.in.bodies[b]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := s.ingest.Do(req)
	if err != nil {
		return 0, err
	}
	var ir api.IngestResponse
	derr := json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if derr != nil {
			return resp.StatusCode, fmt.Errorf("decoding ingest response: %w", derr)
		}
		if n := s.in.batches[b].hi - s.in.batches[b].lo; ir.Accepted != n {
			return resp.StatusCode, fmt.Errorf("batch %d: daemon accepted %d of %d edges", b, ir.Accepted, n)
		}
	}
	return resp.StatusCode, nil
}

// closedLoop sends batches [lo, hi) one at a time, each waiting until the
// daemon has routed it, until the deadline (zero: no deadline). A 429 is
// backpressure: the batch is retried after a short pause.
func (s *served) closedLoop(lo, hi int, deadline time.Time) error {
	for b := lo; b < hi; b++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		for {
			code, err := s.post(b, true)
			if err != nil {
				return err
			}
			if code == http.StatusTooManyRequests {
				s.res.closedRetries++
				time.Sleep(time.Millisecond)
				continue
			}
			if code/100 != 2 {
				return fmt.Errorf("closed-loop batch %d: HTTP %d", b, code)
			}
			break
		}
		s.res.accepted = append(s.res.accepted, b)
		s.res.sentHi = b + 1
		if !deadline.IsZero() {
			s.res.closedMarks = append(s.res.closedMarks, mark{time.Now(), s.in.batches[b].hi - s.in.batches[b].lo})
		}
	}
	return nil
}

// openLoop sends the latency phase on its fixed schedule without waiting
// for processing. A refused or failed batch is not retried: it counts as a
// failure and every match it would have completed as over every limit.
func (s *served) openLoop() error {
	sch := schedule{start: time.Now().Add(10 * time.Millisecond), every: s.every}
	s.openT0.Store(sch.start.UnixNano())
	var firstErr error
	lateness := sch.run(s.openHi-s.openLo, time.Now, time.Sleep, func(i int) {
		b := s.openLo + i
		t0 := time.Now()
		code, err := s.post(b, false)
		s.res.ingestCallMS = append(s.res.ingestCallMS, ms(time.Since(t0)))
		s.res.openBatches++
		switch {
		case err != nil:
			s.res.openFailed++
			if firstErr == nil {
				firstErr = err
			}
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			s.res.openRefused++
		case code/100 != 2:
			s.res.openFailed++
		default:
			s.res.accepted = append(s.res.accepted, b)
		}
		s.res.sentHi = b + 1
	})
	s.res.lateness = lateness
	if firstErr != nil && s.res.openFailed == s.res.openBatches {
		return fmt.Errorf("open loop: every batch failed: %w", firstErr)
	}
	return nil
}

// barrier returns once every accepted edge has been processed by its
// shard: it waits until the runner has routed all of them, then takes one
// more metrics snapshot, which each shard answers only after its mailbox
// ahead of the request is drained.
func (s *served) barrier() (*api.MetricsResponse, error) {
	want := uint64(0)
	for _, b := range s.res.accepted {
		want += uint64(s.in.batches[b].hi - s.in.batches[b].lo)
	}
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := s.c.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		if m.Server.EdgesIngested >= want {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon routed %d of %d edges after 60s", m.Server.EdgesIngested, want)
		}
		time.Sleep(time.Millisecond)
	}
	m, err := s.c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// sampleRSS samples the daemon's resident set every 100 ms until the
// returned stop function is called; the run reports the median sample.
// Sampling covers the open-loop phase, a fixed stretch of the stream.
func (s *served) sampleRSS() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.res.rssMB = append(s.res.rssMB, s.d.statusMB("VmRSS"))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// quiesce waits until the subscriber has received every match the daemon
// handed to it and the count has held still for 50 ms.
func (s *served) quiesce() {
	deadline := time.Now().Add(30 * time.Second)
	last, still := s.received.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n := s.received.Load()
		if n != last {
			last, still = n, time.Now()
			continue
		}
		if time.Since(still) >= 50*time.Millisecond {
			return
		}
	}
}
