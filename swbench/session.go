package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// session is what one run of the system under test measured.
type session struct {
	setup      []float64 // seconds, one per set-up
	registerMS []float64 // initial registrations of the measured set-up

	// accepted lists the batches the system took, in send order; sentHi is
	// one past the last batch sent.
	accepted []int
	sentHi   int

	openBatches, openRefused, openFailed int
	openLen                              int // open-loop batches scheduled
	closedRetries                        int
	lateness                             []float64 // ms behind schedule, per open-loop batch
	ingestCallMS                         []float64 // per open-loop ingest call
	latency                              []latencySample

	closedEdges     int
	closedSecs      float64
	closedExhausted bool
	// closedStart and closedMarks time the closed-loop phase: one mark per
	// completed request, with the edges it carried.
	closedStart time.Time
	closedMarks []mark

	delivered map[string]digest
	// scope is the queries whose delivered matches are checked: every
	// query, or on the churn workload those registered for the whole run.
	scope   []string
	evicted int
	// memMB is the in-process heap growth at the end of the open-loop
	// phase and endMemMB at the end of the run, both without the harness's
	// own buffers (harnessMB, harnessEndMB); rssMB the served daemon's
	// resident set sampled through the open-loop phase, peakMB its VmHWM.
	memMB, harnessMB       float64
	endMemMB, harnessEndMB float64
	rssMB                  []float64
	peakMB                 float64
	errors                 []string

	// Served: daemon metrics after warm-up, after the open-loop phase and
	// at the end.
	afterWarm, afterOpen, final *api.MetricsResponse
	// In-process: engine metrics after warm-up, after the open-loop phase
	// and at the end, and per-call timings of the churn and of ProcessBatch.
	engWarm, engOpen, engFinal core.Metrics
	attachMS                   []float64
	detachMS                   []float64
	processBatchMS             []float64
}

type mark struct {
	at    time.Time
	edges int
}

// chunkRates splits the closed-loop phase's requests into n consecutive
// chunks and returns each chunk's edges/s, from the completion of the
// previous chunk (or the phase start) to the completion of its last
// request. Their median is the reported throughput: a stall in one chunk
// moves it less than it moves the mean.
func chunkRates(start time.Time, marks []mark, n int) []float64 {
	size := len(marks) / n
	if size == 0 {
		return nil
	}
	var rates []float64
	prev := start
	for c := 0; c < n; c++ {
		edges := 0
		for _, m := range marks[c*size : (c+1)*size] {
			edges += m.edges
		}
		end := marks[(c+1)*size-1].at
		rates = append(rates, float64(edges)/end.Sub(prev).Seconds())
		prev = end
	}
	return rates
}

type latencySample struct {
	query string
	batch int // index within the open-loop phase
	ms    float64
}

func newSession() *session { return &session{delivered: map[string]digest{}} }

// sentEdges is the number of edges the run sent, accepted or not.
func (s *session) sentEdges(in *inputs) int {
	if s.sentHi == 0 {
		return 0
	}
	return in.batches[s.sentHi-1].hi
}

// inproc drives the many-queries-churn workload through the public
// in-process engine with shared plans. Matches reach the sink synchronously
// inside ProcessBatch, so the sink time is the delivery time.
type inproc struct {
	sp  spec
	in  *inputs
	res *session
	eng *streamworks.Local

	victim     *rand.Rand
	registered []string
	removed    map[string]bool
	nextFresh  int
	nextChurn  int // edge count at which the next replacement is due

	openLo, openHi int
	sched          schedule
	openStarted    bool
	next           *prefetch
}

// prefetch decodes the batches in order on its own goroutine, ahead of the
// engine: the run holds only encoded bodies, and decoding stays off the
// engine's goroutine (the engine is single-threaded, so the second CPU is
// free for it).
type prefetch struct {
	ch   chan []graph.StreamEdge
	stop chan struct{}
	done chan struct{}
}

func startPrefetch(in *inputs) *prefetch {
	// Eight batches of lead cover a decode that is briefly descheduled.
	p := &prefetch{ch: make(chan []graph.StreamEdge, 8), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for b := range in.batches {
			select {
			case p.ch <- in.batchEdges(b):
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// waitFull returns once the decoded batches fill the queue, or the stream
// is exhausted.
func (p *prefetch) waitFull() {
	for len(p.ch) < cap(p.ch) {
		select {
		case <-p.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func (p *prefetch) close() {
	close(p.stop)
	<-p.done
}

func engineConfig(sp spec) core.Config {
	return core.Config{Retention: sp.window, EnableSummaries: true, TriadSampling: 10, SharedPlans: true}
}

func runInproc(sp spec, in *inputs, rate float64, phase time.Duration, obsOn bool) (*session, error) {
	res := newSession()
	p := &inproc{sp: sp, in: in, res: res, removed: map[string]bool{}, nextChurn: churnEvery,
		victim: rand.New(rand.NewSource(in.churnSeed))}
	every := time.Duration(float64(sp.batch) / rate * float64(time.Second))
	p.openLo = in.firstBatchAfterWarm()
	p.openHi = min(p.openLo+int(phase/every), len(in.batches))
	res.openLen = p.openHi - p.openLo

	// The prefetch queue is full both when the heap base is read and when
	// it is read again at the end of the open loop (the engine idles there
	// between batches), so its decoded batches cancel out of the growth.
	p.next = startPrefetch(in)
	defer p.next.close()
	p.next.waitFull()
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	for i := 0; i < setups; i++ {
		if p.eng != nil {
			p.eng.Close()
			p.eng = nil
			runtime.GC()
			runtime.ReadMemStats(&base)
		}
		if err := p.setup(obsOn); err != nil {
			return nil, err
		}
	}
	defer p.eng.Close()
	ctx := context.Background()

	for b := 0; b < p.openLo; b++ {
		if err := p.send(ctx, b); err != nil {
			return nil, err
		}
	}
	res.engWarm, _ = p.eng.Metrics(ctx)

	p.sched = schedule{start: time.Now().Add(10 * time.Millisecond), every: every}
	p.openStarted = true
	var firstErr error
	res.lateness = p.sched.run(p.openHi-p.openLo, time.Now, spinSleep, func(i int) {
		res.openBatches++
		if err := p.send(ctx, p.openLo+i); err != nil {
			res.openFailed++
			if firstErr == nil {
				firstErr = err
			}
		}
	})
	if firstErr != nil {
		return nil, fmt.Errorf("open loop: %w", firstErr)
	}
	p.openStarted = false
	res.engOpen, _ = p.eng.Metrics(ctx)
	// Memory is read at a fixed point of the stream, the end of the
	// open-loop phase; how far the closed loop gets depends on speed.
	res.memMB, res.harnessMB = p.engineHeapMB(base)

	start := time.Now()
	res.closedStart = start
	deadline := start.Add(phase)
	b := p.openHi
	for ; b < len(in.batches) && time.Now().Before(deadline); b++ {
		if err := p.send(ctx, b); err != nil {
			return nil, err
		}
		res.closedMarks = append(res.closedMarks, mark{time.Now(), in.batches[b].hi - in.batches[b].lo})
	}
	res.closedSecs = time.Since(start).Seconds()
	res.closedEdges = in.batches[b-1].hi - in.batches[p.openHi].lo
	res.closedExhausted = b == len(in.batches) && time.Now().Before(deadline)
	res.engFinal, _ = p.eng.Metrics(ctx)

	res.endMemMB, res.harnessEndMB = p.engineHeapMB(base)
	for _, q := range in.queries {
		if !p.removed[q.Name()] {
			res.scope = append(res.scope, q.Name())
		}
	}
	return res, nil
}

// engineHeapMB is the heap in use after a forced collection, minus base
// and minus the harness's own per-batch and per-match buffers, which grow
// with the run and would otherwise be charged to the engine.
func (p *inproc) engineHeapMB(base runtime.MemStats) (engine, harness float64) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	harness = float64(p.res.harnessBytes()) / (1 << 20)
	return (float64(m.HeapAlloc)-float64(base.HeapAlloc))/(1<<20) - harness, harness
}

// harnessBytes is the capacity of the session's growing sample buffers.
func (s *session) harnessBytes() uintptr {
	f := unsafe.Sizeof(float64(0))
	return uintptr(cap(s.latency))*unsafe.Sizeof(latencySample{}) +
		uintptr(cap(s.closedMarks))*unsafe.Sizeof(mark{}) +
		uintptr(cap(s.accepted))*unsafe.Sizeof(int(0)) +
		uintptr(cap(s.lateness)+cap(s.processBatchMS)+cap(s.attachMS)+cap(s.detachMS)+cap(s.setup)+cap(s.registerMS))*f
}

// setup builds the engine, registers the initial variants and subscribes.
func (p *inproc) setup(obsOn bool) error {
	t0 := time.Now()
	opts := []streamworks.Option{streamworks.WithEngineConfig(engineConfig(p.sp))}
	if obsOn {
		opts = append(opts, streamworks.WithObservability(true))
	}
	eng := streamworks.New(opts...)
	ctx := context.Background()
	var reg []float64
	p.registered = p.registered[:0]
	for _, q := range p.in.queries {
		r0 := time.Now()
		if err := eng.RegisterQuery(ctx, q); err != nil {
			eng.Close()
			return fmt.Errorf("registering %s: %w", q.Name(), err)
		}
		reg = append(reg, ms(time.Since(r0)))
		p.registered = append(p.registered, q.Name())
	}
	if _, err := eng.Subscribe("", streamworks.SinkFunc(p.sink)); err != nil {
		eng.Close()
		return err
	}
	p.res.setup = append(p.res.setup, time.Since(t0).Seconds())
	p.res.registerMS = reg
	p.eng = eng
	return nil
}

func (p *inproc) sink(m streamworks.Match) {
	now := time.Now()
	d := p.res.delivered[m.Query]
	d.add(m.Query, m.Signature)
	p.res.delivered[m.Query] = d
	if !p.openStarted {
		return
	}
	if b := p.in.lastBatch(m.EdgeIDs); b >= p.openLo && b < p.openHi {
		p.res.latency = append(p.res.latency, latencySample{query: m.Query, batch: b - p.openLo, ms: ms(now.Sub(p.sched.due(b - p.openLo)))})
	}
}

// send processes one batch and then applies every replacement that falls
// due: the churn schedule is a function of the edge count, so it is the
// same whatever the timing.
func (p *inproc) send(ctx context.Context, b int) error {
	bs := p.in.batches[b]
	edges := <-p.next.ch
	t0 := time.Now()
	if err := p.eng.ProcessBatch(ctx, edges); err != nil {
		return err
	}
	if b >= p.openLo {
		p.res.processBatchMS = append(p.res.processBatchMS, ms(time.Since(t0)))
	}
	p.res.accepted = append(p.res.accepted, b)
	p.res.sentHi = b + 1
	for bs.hi >= p.nextChurn && p.nextFresh < len(p.in.fresh) {
		p.nextChurn += churnEvery
		q := p.in.fresh[p.nextFresh]
		p.nextFresh++
		// The fresh variant replaces a seeded pick among the registered
		// variants of its own family, so the family mix, and with it the
		// work per edge, stays that of the initial 200.
		var same []int
		for i, name := range p.registered {
			if family(name) == family(q.Name()) {
				same = append(same, i)
			}
		}
		i := same[p.victim.Intn(len(same))]
		name := p.registered[i]
		p.registered[i] = p.registered[len(p.registered)-1]
		p.registered = p.registered[:len(p.registered)-1]
		t := time.Now()
		if err := p.eng.UnregisterQuery(ctx, name); err != nil {
			return fmt.Errorf("unregistering %s: %w", name, err)
		}
		p.res.detachMS = append(p.res.detachMS, ms(time.Since(t)))
		p.removed[name] = true
		t = time.Now()
		if err := p.eng.RegisterQuery(ctx, q); err != nil {
			return fmt.Errorf("registering %s mid-stream: %w", q.Name(), err)
		}
		p.res.attachMS = append(p.res.attachMS, ms(time.Since(t)))
		p.registered = append(p.registered, q.Name())
	}
	return nil
}

// family is a variant's family: its name without the "-v<index>" suffix.
func family(name string) string {
	if i := strings.LastIndex(name, "-v"); i >= 0 {
		return name[:i]
	}
	return name
}

func queryNames(qs []*query.Graph) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Name()
	}
	return out
}

// spinSleep sleeps for d but spins through its last two milliseconds: a
// sleeping goroutine wakes late (by half a millisecond at the median on a
// 2-vCPU virtual machine), and that delay would be charged to the engine's
// latency. The
// served workloads sleep plainly, since a spinning generator would take
// CPU from the daemon.
func spinSleep(d time.Duration) {
	end := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(end) {
	}
}
