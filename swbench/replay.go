package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
	"github.com/streamworks/streamworks/internal/wal"
	"github.com/streamworks/streamworks/internal/wire"
)

// replayEdges is how many post-warm-up edges the layer replay times.
const replayEdges = 60000

// traceSpan is one timed call into a layer, in nanoseconds since the
// tracer's base. Parent is -1 for a root span.
type traceSpan struct {
	Name   string
	Parent int32
	Start  int64
	End    int64
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	base  time.Time
	spans []traceSpan
	on    bool
}

func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, traceSpan{Name: name, Parent: parent, Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// total sums the duration of every span with the given name.
func (t *tracer) total(name string) (ns float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			n++
		}
	}
	return ns, n
}

// write saves the spans as JSON lines, one span per line with its index.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%s,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.Parent, strconv.Quote(s.Name), s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is what the replay measured, per measured edge or match.
type layers struct {
	edges, matches int
	bodyBytes      int
	decodeNS       float64
	encodeNS       float64
	walAppendNS    float64
	walBytes       uint64
	walFsyncs      uint64
	applyNS        float64
	observeNS      float64
	processNS      float64
	dispatchNS     float64
	reportNS       float64
	searchNS       float64 // summed over the measured edges
	searches       uint64
	joinNS         float64
	joins          uint64
	joinAttempts   uint64
	joinHits       uint64
	partials       int
	localSearches  uint64
	gcCPUFrac      float64
}

// replay times calls into each layer's public functions over the run's
// stream: wire decode of the pre-encoded batches, the WAL append, a
// graph.Dynamic + stats.Summary pair fed edge by edge, core.Engine with the
// system's engine configuration, export.BuildReport for every match it
// delivers, and wire encode of every report. The first widest window is
// replayed untimed so that every layer is measured in steady state.
func replay(sp spec, in *inputs, cfg core.Config, work string, tr *tracer) (*layers, error) {
	// One normalised config, so that the engine and a shared-plan DAG record
	// into the same registry.
	cfg.Obs = obs.Config{Enabled: true}.Normalized()
	eng := core.New(&cfg)
	byName := map[string]*query.Graph{}
	for _, q := range in.queries {
		if _, err := eng.RegisterQuery(q); err != nil {
			return nil, fmt.Errorf("replay: registering %s: %w", q.Name(), err)
		}
		byName[q.Name()] = q
	}
	dyn := graph.NewDynamic(cfg.Retention)
	sum := stats.NewSummary(stats.WithTriadSampling(cfg.TriadSampling))
	dir, err := os.MkdirTemp(work, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	man, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval, Retention: cfg.Retention})
	if err != nil {
		return nil, fmt.Errorf("replay: opening WAL: %w", err)
	}
	defer man.Close()

	first := in.firstBatchAfterWarm()
	last := first
	for last < len(in.batches) && in.batches[last].lo-in.warm < replayEdges {
		last++
	}
	bodies := in.bodies
	var (
		reports []export.MatchReport
		cur     int32 = -1
	)
	eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
		d := tr.begin("core.dispatch", cur)
		r := tr.begin("export.report", d)
		rep := export.BuildReport(ev, byName[ev.Query], nil)
		tr.end(r)
		tr.end(d)
		if tr.on {
			reports = append(reports, rep)
		}
	}))

	// Untimed warm-up of every stateful layer.
	for b := 0; b < first; b++ {
		edges := in.batchEdges(b)
		if err := man.AppendEdges(edges); err != nil {
			return nil, fmt.Errorf("replay: WAL append: %w", err)
		}
		for _, se := range edges {
			if _, err := dyn.Apply(se); err == nil {
				sum.Observe(se, dyn.Graph())
			}
			eng.ProcessEdge(se)
		}
	}

	walBefore := man.Stats()
	obsBefore := eng.ObsRegistry().Snapshot()
	mBefore := eng.Metrics()
	gcBefore := gcCPU()
	tr.on = true
	var frame []byte
	var scratch []byte
	out := &layers{}
	for b := first; b < last; b++ {
		root := tr.begin("batch", -1)
		out.bodyBytes += len(bodies[b])
		dec := tr.begin("wire.decode", root)
		edges, err := decodeBody(bodies[b])
		tr.end(dec)
		if err != nil {
			return nil, err
		}
		w := tr.begin("wal.append", root)
		err = man.AppendEdges(edges)
		tr.end(w)
		if err != nil {
			return nil, fmt.Errorf("replay: WAL append: %w", err)
		}
		for _, se := range edges {
			a := tr.begin("graph.apply", root)
			_, aerr := dyn.Apply(se)
			tr.end(a)
			if aerr == nil {
				o := tr.begin("stats.observe", root)
				sum.Observe(se, dyn.Graph())
				tr.end(o)
			}
			cur = tr.begin("core.process", root)
			eng.ProcessEdge(se)
			tr.end(cur)
			cur = -1
			for _, rep := range reports {
				e := tr.begin("wire.encode", root)
				frame, scratch = wire.AppendMatchFrame(frame[:0], scratch, rep)
				tr.end(e)
			}
			out.matches += len(reports)
			reports = reports[:0]
		}
		out.edges += len(edges)
		tr.end(root)
	}
	tr.on = false
	out.gcCPUFrac = gcCPU().since(gcBefore)
	walAfter := man.Stats()
	obsAfter := eng.ObsRegistry().Snapshot()
	m := eng.Metrics()

	out.decodeNS, _ = tr.total("wire.decode")
	out.encodeNS, _ = tr.total("wire.encode")
	out.walAppendNS, _ = tr.total("wal.append")
	out.applyNS, _ = tr.total("graph.apply")
	out.observeNS, _ = tr.total("stats.observe")
	out.processNS, _ = tr.total("core.process")
	out.dispatchNS, _ = tr.total("core.dispatch")
	out.reportNS, _ = tr.total("export.report")
	out.walBytes = walAfter.Bytes - walBefore.Bytes
	out.walFsyncs = walAfter.Fsyncs - walBefore.Fsyncs
	ls := segmentDelta(obsBefore, obsAfter, obs.SegLocalSearch)
	js := segmentDelta(obsBefore, obsAfter, obs.SegSJTreeJoin)
	out.searchNS, out.searches = float64(ls.Sum), ls.Count
	out.joinNS, out.joins = float64(js.Sum), js.Count
	out.localSearches = m.LocalSearches - mBefore.LocalSearches
	out.partials = m.PartialMatches
	out.joinAttempts, out.joinHits = joinCounts(m)
	return out, nil
}

func decodeBody(body []byte) ([]graph.StreamEdge, error) {
	rd := wire.NewReader(bytes.NewReader(body))
	var edges []graph.StreamEdge
	for {
		typ, payload, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return edges, nil
		}
		if err != nil {
			return nil, fmt.Errorf("replay: decoding batch: %w", err)
		}
		if typ != wire.FrameEdge {
			return nil, wire.ErrCorrupt
		}
		se, err := wire.DecodeEdge(payload)
		if err != nil {
			return nil, fmt.Errorf("replay: decoding edge: %w", err)
		}
		edges = append(edges, se)
	}
}

// joinCounts sums sibling-join probes and successes over every plan node.
func joinCounts(m core.Metrics) (attempts, hits uint64) {
	if m.MQO != nil {
		for _, n := range m.MQO.PerNode {
			attempts += n.JoinAttempts
			hits += n.JoinHits
		}
		return attempts, hits
	}
	for _, q := range m.Queries {
		for _, n := range q.Nodes {
			attempts += n.JoinAttempts
			hits += n.JoinHits
		}
	}
	return attempts, hits
}

// segmentDelta is the named segment histogram of after minus before.
func segmentDelta(before, after obs.Snapshot, seg string) obs.HistogramSnapshot {
	a, _ := after.Find(obs.SegmentHistogramName, seg)
	b, ok := before.Find(obs.SegmentHistogramName, seg)
	if !ok {
		return a
	}
	d := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Buckets: make([]uint64, len(a.Buckets))}
	for i := range a.Buckets {
		d.Buckets[i] = a.Buckets[i]
		if i < len(b.Buckets) {
			d.Buckets[i] -= b.Buckets[i]
		}
	}
	if d.Count > 0 {
		d.Mean = float64(d.Sum) / float64(d.Count)
	}
	return d
}

// cpuSample is the process's cumulative GC CPU time (runtime/metrics) and
// total CPU time (getrusage).
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.total = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return c
}

func (c cpuSample) since(b cpuSample) float64 {
	if c.total <= b.total {
		return 0
	}
	return (c.gc - b.gc) / (c.total - b.total)
}
