package gen

// Bounded engine state under a sliding window: the exactly-once emitted
// sets (per-query SJ-Trees and shared-DAG attachments alike) forget a match
// once its oldest edge has left the retention window, so their size tracks
// the matches of one window instead of the whole stream — without ever
// re-emitting a match, which the NaiveExpand oracle's unbounded seen-sets
// would expose.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/baseline"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// boundedNetflowWorkload is a netflow stream spanning 60 one-second
// retention windows under the netflow-side variant families, whose
// patterns the background traffic completes many times per window.
func boundedNetflowWorkload() Workload {
	cfg := NetFlowConfig{
		Hosts:       150,
		Servers:     12,
		Edges:       60_000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        61,
	}
	w := NetFlowWorkload(cfg, time.Second)
	w.Name = "netflow-windowed"
	w.Queries = QueryVariants(6, time.Second) // the six netflow families
	return w
}

// boundedNewsWorkload is a news stream spanning 25 two-minute retention
// windows under the Fig. 2 co-mention query.
func boundedNewsWorkload() Workload {
	cfg := DefaultNewsConfig()
	cfg.Articles = 1500
	cfg.Keywords = 60
	cfg.Locations = 12
	cfg.EventClusters = 4
	w := NewsWorkload(cfg, 2*time.Minute, 2)
	w.Name = "news-windowed"
	return w
}

// emittedTrace replays w through a core engine, recording every match
// (failing on a duplicate emission) and sampling Metrics.EmittedTracked.
type emittedTrace struct {
	set       MatchSet
	spans     map[string]graph.Interval // by MatchSet key
	emitted   uint64
	samples   []int
	retention time.Duration
}

func traceEmitted(t *testing.T, w Workload, shared bool, samples int) emittedTrace {
	t.Helper()
	cfg := w.Engine
	cfg.SharedPlans = shared
	eng := core.New(&cfg)
	for _, q := range w.Queries {
		if _, err := eng.RegisterQuery(q); err != nil {
			t.Fatalf("register %s: %v", q.Name(), err)
		}
	}
	tr := emittedTrace{set: make(MatchSet), spans: make(map[string]graph.Interval), retention: eng.Graph().Window()}
	eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) { tr.record(t, ev) }))
	every := len(w.Edges) / samples
	for i, se := range w.Edges {
		eng.ProcessEdge(se)
		if (i+1)%every == 0 {
			tr.samples = append(tr.samples, eng.Metrics().EmittedTracked)
		}
	}
	tr.emitted = eng.Metrics().MatchesEmitted
	return tr
}

// record adds an emission to the trace, failing on a duplicate. It is fed
// by an engine subscription, which also sees what plan-swap replays emit.
func (tr *emittedTrace) record(t *testing.T, ev core.MatchEvent) {
	t.Helper()
	n := len(tr.set)
	tr.set.Add(ev)
	if len(tr.set) == n {
		t.Fatalf("%s: match emitted twice: %s", ev.Query, ev.Match.Signature())
	}
	tr.spans[matchKey(ev)] = ev.Match.Span
}

// matchKey is the MatchSet key of an event.
func matchKey(ev core.MatchEvent) string { return ev.Query + "\x1f" + ev.Match.Signature() }

// oracleMatchSet runs the NaiveExpand baseline — full-pattern expansion
// around every edge, deduplicated by an unbounded seen-set — over w.
func oracleMatchSet(t *testing.T, w Workload, retention time.Duration) MatchSet {
	t.Helper()
	n := baseline.NewNaiveExpand(retention, w.Engine.Slack)
	for _, q := range w.Queries {
		if err := n.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	set := make(MatchSet)
	for _, se := range w.Edges {
		for _, ev := range n.ProcessEdge(se) {
			set.Add(ev)
		}
	}
	return set
}

func TestEmittedSetsBoundedUnderSlidingWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two streams of 20+ retention windows")
	}
	for _, w := range []Workload{boundedNetflowWorkload(), boundedNewsWorkload()} {
		span := time.Duration(w.Edges[len(w.Edges)-1].Edge.Timestamp - w.Edges[0].Edge.Timestamp)
		var oracle MatchSet
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shared=%v", w.Name, shared), func(t *testing.T) {
				tr := traceEmitted(t, w, shared, 40)
				if windows := span / tr.retention; windows < 20 {
					t.Fatalf("stream spans %d retention windows, want >= 20", windows)
				}
				if oracle == nil {
					oracle = oracleMatchSet(t, w, tr.retention)
				}
				if len(oracle) == 0 {
					t.Fatal("oracle found no matches; the workload proves nothing")
				}
				if !tr.set.Equal(oracle) {
					t.Fatalf("engine found %d matches, NaiveExpand %d", len(tr.set), len(oracle))
				}
				half := len(tr.samples) / 2
				first, second := slices.Max(tr.samples[:half]), slices.Max(tr.samples[half:])
				t.Logf("emitted %d matches; EmittedTracked max %d (first half) / %d (second half)",
					tr.emitted, first, second)
				if float64(second) > 1.5*float64(first) {
					t.Fatalf("EmittedTracked still growing: first-half max %d, second-half max %d", first, second)
				}
				// The sets must actually have forgotten most of the stream.
				if uint64(second)*3 > tr.emitted {
					t.Fatalf("EmittedTracked %d of %d emitted: the sets are not being swept", second, tr.emitted)
				}
			})
		}
	}
}

// TestExactlyOnceAcrossSweepsSwapsAndAttaches hot-swaps plans (ReplanNow
// with a random strategy) at seeded random points and attaches a query
// mid-stream, each after the emitted sets have been swept. A swap replays
// the retained window and a shared attach backfills from it, so a sweep
// that forgot a still-derivable match would surface here as a duplicate or
// as a match the frozen run never emitted.
func TestExactlyOnceAcrossSweepsSwapsAndAttaches(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two streams of 20+ retention windows")
	}
	strategies := []decompose.Strategy{
		decompose.StrategySelective, decompose.StrategyLazy,
		decompose.StrategyEager, decompose.StrategyBalanced,
	}
	cases := []struct {
		w    Workload
		late *query.Graph
	}{
		{boundedNetflowWorkload(), queryVariantFamilies[4].build("probe-late", time.Second, 0)},
		// Structurally identical to the standing query: a shared attach
		// lands entirely on warm nodes and must suppress their backlog.
		{boundedNewsWorkload(), newsVariant("news-late", 2*time.Minute, 2)},
	}
	for ci, c := range cases {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shared=%v", c.w.Name, shared), func(t *testing.T) {
				// The frozen run registers every query up front and never
				// swaps.
				full := c.w
				full.Queries = append(append([]*query.Graph(nil), c.w.Queries...), c.late)
				ref := traceEmitted(t, full, shared, 10)

				cfg := c.w.Engine
				cfg.SharedPlans = shared
				eng := core.New(&cfg)
				for _, q := range c.w.Queries {
					if _, err := eng.RegisterQuery(q); err != nil {
						t.Fatal(err)
					}
				}
				got := emittedTrace{set: make(MatchSet), spans: make(map[string]graph.Interval)}
				eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) { got.record(t, ev) }))
				swept := func() bool {
					m := eng.Metrics()
					return m.EmittedTracked < int(m.MatchesEmitted)
				}
				rng := rand.New(rand.NewSource(int64(97 + ci)))
				attachAt := len(c.w.Edges) / 3
				var attachWM graph.Timestamp
				swaps := 0
				for i, se := range c.w.Edges {
					eng.ProcessEdge(se)
					if i == attachAt {
						if !swept() {
							t.Fatal("no sweep fired before the mid-stream attach")
						}
						if _, err := eng.RegisterQuery(c.late); err != nil {
							t.Fatalf("mid-stream attach: %v", err)
						}
						attachWM = eng.Graph().Watermark()
					}
					if i > len(c.w.Edges)/5 && rng.Intn(len(c.w.Edges)/12) == 0 && swept() {
						names := eng.Registrations()
						name := names[rng.Intn(len(names))]
						if err := eng.ReplanNow(name, strategies[rng.Intn(len(strategies))]); err != nil {
							t.Fatalf("ReplanNow(%s): %v", name, err)
						}
						swaps++
					}
				}
				if swaps < 4 {
					t.Fatalf("only %d plan swaps ran", swaps)
				}
				// Standing queries emit exactly the frozen run's matches. The
				// late query emits only matches the frozen run found, and all
				// of those that started after it attached.
				late := c.late.Name() + "\x1f"
				startedAfter := 0
				for k, span := range ref.spans {
					_, ok := got.set[k]
					switch {
					case !strings.HasPrefix(k, late) && !ok:
						t.Fatalf("standing query lost a match across %d swaps: %s", swaps, k)
					case strings.HasPrefix(k, late) && span.Start > attachWM:
						startedAfter++
						if !ok {
							t.Fatalf("late query missed a match after its attach: %s", k)
						}
					}
				}
				for k := range got.set {
					if _, ok := ref.set[k]; !ok {
						t.Fatalf("emitted a match the frozen run never found: %s", k)
					}
				}
				if startedAfter == 0 {
					t.Fatal("the late query has no match after its attach; the case proves nothing")
				}
				t.Logf("%d swaps; %d of the frozen run's %d matches", swaps, len(got.set), len(ref.set))
			})
		}
	}
}

// TestEdgeIDReuseAfterExpiryReemits pins what happens when an edge ID is
// reused after its edge expired: a match re-formed entirely from reused IDs
// has the same identity (the pattern-edge → data-edge-ID binding) as one
// emitted long ago, whose dedup entry every layer has since forgotten, so
// it is emitted again. Per-query, shared-plan and sharded engines agree.
// The stream first completes enough matches, over enough retention windows,
// that every dedup layer has swept: each engine's emitted set and the
// sharded merge dedup, which sweeps from 4096 entries on.
func TestEdgeIDReuseAfterExpiryReemits(t *testing.T) {
	const (
		window = 10 * time.Second
		pairs  = 5000
	)
	q := query.NewBuilder("hop").
		Window(window).
		Vertex("a", "").Vertex("b", "").Vertex("c", "").
		Edge("a", "b", "x").
		Edge("b", "c", "y").
		MustBuild()
	t0 := graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	pair := func(i int, ts graph.Timestamp) []graph.StreamEdge {
		v := graph.VertexID(3*i + 1)
		return []graph.StreamEdge{
			{Edge: graph.Edge{ID: graph.EdgeID(2*i + 1), Source: v, Target: v + 1, Type: "x", Timestamp: ts}},
			{Edge: graph.Edge{ID: graph.EdgeID(2*i + 2), Source: v + 1, Target: v + 2, Type: "y", Timestamp: ts}},
		}
	}
	var edges []graph.StreamEdge
	for i := 0; i < pairs; i++ {
		edges = append(edges, pair(i, t0+graph.Timestamp(i)*graph.Timestamp(100*time.Millisecond))...)
	}
	last := edges[len(edges)-1].Edge.Timestamp
	// Pair 0 again, IDs and endpoints unchanged, long after it expired.
	edges = append(edges, pair(0, last+graph.Timestamp(time.Second))...)
	reused := "0:1,1:2"

	cfg := core.Config{Retention: window}
	modes := []struct {
		name string
		eng  streamworks.Engine
	}{
		{"per-query", streamworks.New(streamworks.WithEngineConfig(cfg))},
		{"shared", streamworks.New(streamworks.WithEngineConfig(cfg), streamworks.WithSharedPlans(true))},
		{"sharded2", streamworks.NewSharded(streamworks.WithEngineConfig(cfg), streamworks.WithShards(2))},
	}
	for _, m := range modes {
		ctx := context.Background()
		if err := m.eng.RegisterQuery(ctx, q); err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		sub, err := m.eng.Subscribe("", streamworks.SinkFunc(func(mt streamworks.Match) { counts[mt.Signature]++ }))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(edges); lo += 512 {
			if err := m.eng.ProcessBatch(ctx, edges[lo:min(lo+512, len(edges))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.eng.Close(); err != nil {
			t.Fatal(err)
		}
		<-sub.Done()
		if len(counts) != pairs {
			t.Fatalf("%s: %d distinct matches, want %d", m.name, len(counts), pairs)
		}
		for sig, n := range counts {
			want := 1
			if sig == reused {
				want = 2
			}
			if n != want {
				t.Fatalf("%s: match %s emitted %d times, want %d", m.name, sig, n, want)
			}
		}
	}
}
