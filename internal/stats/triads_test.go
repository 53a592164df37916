package stats

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// scanTriads is the O(degree) incident-edge scan that ObserveEdge's leg
// counts replace, kept as the exactness oracle: every entry in either
// endpoint's incidence lists except those of the edge stored under e.ID
// forms one wedge with e.
func scanTriads(t *TriadTable, g *graph.Graph, e *graph.Edge, typeOf func(graph.VertexID) string) {
	around := func(center graph.VertexID) {
		ct := typeOf(center)
		newOut := e.Source == center
		observe := func(other *graph.Edge) {
			if other.ID == e.ID {
				return
			}
			t.counts[canonicalTriad(ct, e.Type, newOut, other.Type, other.Source == center)]++
			t.total++
		}
		for _, other := range g.OutEdges(center) {
			observe(other)
		}
		for _, other := range g.InEdges(center) {
			observe(other)
		}
	}
	around(e.Source)
	if e.Target != e.Source {
		around(e.Target)
	}
}

func sameTriads(a, b *TriadTable) bool {
	return a.total == b.total && maps.Equal(a.counts, b.counts)
}

// streamShape is one random stream's parameters.
type streamShape struct {
	window, slack time.Duration
	vertices      int
	hubFrac       float64 // share of edges touching vertex 0
	loopFrac      float64 // share of self-loops
	dupFrac       float64 // share of edges reusing an earlier edge ID
	lateFrac      float64 // share of edges whose timestamp jumps backwards
}

func (sh streamShape) String() string {
	return fmt.Sprintf("w%s_s%s_v%d", sh.window, sh.slack, sh.vertices)
}

// randomStream generates n stream edges of the given shape. Timestamps are
// milliseconds; vertex 0 is the hub and vertex types cycle over three
// labels, with the hub's type given only on some of its edges.
func randomStream(rng *rand.Rand, sh streamShape, n int) []graph.StreamEdge {
	types := []string{"flow", "dns", "auth"}
	vtype := func(v graph.VertexID) string {
		if v == 0 && rng.Intn(3) > 0 {
			return ""
		}
		return []string{"Host", "Server", "Client"}[v%3]
	}
	var out []graph.StreamEdge
	ts := graph.Timestamp(0)
	for i := 0; i < n; i++ {
		ts += graph.Timestamp(rng.Intn(3)) * graph.Timestamp(time.Millisecond)
		at := ts
		if rng.Float64() < sh.lateFrac {
			at -= graph.Timestamp(rng.Int63n(int64(2*sh.slack + time.Millisecond)))
		}
		src := graph.VertexID(rng.Intn(sh.vertices))
		dst := graph.VertexID(rng.Intn(sh.vertices))
		if rng.Float64() < sh.hubFrac {
			if rng.Intn(2) == 0 {
				src = 0
			} else {
				dst = 0
			}
		}
		if rng.Float64() < sh.loopFrac {
			dst = src
		}
		id := graph.EdgeID(i + 1)
		if i > 0 && rng.Float64() < sh.dupFrac {
			id = graph.EdgeID(rng.Intn(i) + 1)
		}
		out = append(out, graph.StreamEdge{
			Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: types[rng.Intn(len(types))], Timestamp: at},
			SourceType: vtype(src),
			TargetType: vtype(dst),
		})
	}
	return out
}

var streamShapes = []streamShape{
	{window: 0, vertices: 12, hubFrac: 0.3, loopFrac: 0.05, dupFrac: 0.05},
	{window: 40 * time.Millisecond, vertices: 20, hubFrac: 0.5, loopFrac: 0.1, dupFrac: 0.1},
	{window: 40 * time.Millisecond, slack: 10 * time.Millisecond, vertices: 8, hubFrac: 0.2, loopFrac: 0.1, dupFrac: 0.05, lateFrac: 0.2},
	// Slack wider than the window: an edge can be accepted and expire in
	// the same Apply, so it is absent from the graph when it is observed.
	{window: 5 * time.Millisecond, slack: 20 * time.Millisecond, vertices: 6, hubFrac: 0.4, loopFrac: 0.1, dupFrac: 0.1, lateFrac: 0.4},
	{window: 200 * time.Millisecond, vertices: 50, hubFrac: 0.8, loopFrac: 0.02, dupFrac: 0.02},
}

// TestTriadLegsMatchScan feeds random streams through a sliding-window
// graph and checks after every edge that the leg-based TriadTable holds
// exactly the counts and total of the incident-edge scan. The table-level
// check observes every edge, rejected ones included (a rejected duplicate
// ID names a different stored edge); the Summary-level check observes
// accepted edges only, at several sampling rates, as the engine does.
func TestTriadLegsMatchScan(t *testing.T) {
	for si, sh := range streamShapes {
		for _, sampling := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s_n%d", sh, sampling), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(si*10 + sampling)))
				dyn := graph.NewDynamic(sh.window, graph.WithSlack(sh.slack))
				g := dyn.Graph()
				types := map[graph.VertexID]string{}
				typeOf := func(v graph.VertexID) string { return types[v] }
				legs, scan := NewTriadTable(), NewTriadTable()
				sum, oracle := NewSummary(WithTriadSampling(sampling)), NewTriadTable()
				accepted := 0
				for i, se := range randomStream(rng, sh, 3000) {
					if se.SourceType != "" {
						types[se.Edge.Source] = se.SourceType
					}
					if se.TargetType != "" {
						types[se.Edge.Target] = se.TargetType
					}
					_, err := dyn.Apply(se)
					legs.ObserveEdge(g, &se.Edge, typeOf)
					scanTriads(scan, g, &se.Edge, typeOf)
					if !sameTriads(legs, scan) {
						t.Fatalf("edge %d (%v): leg-based triads diverge from the scan:\n%v\n%v", i, se.Edge, legs.counts, scan.counts)
					}
					if err != nil {
						continue
					}
					accepted++
					sum.Observe(se, g)
					if accepted%sampling == 0 {
						scanTriads(oracle, g, &se.Edge, sum.vertexTypeOf)
					}
					if !sameTriads(sum.triads, oracle) {
						t.Fatalf("edge %d (%v): summary triads diverge from the scan:\n%v\n%v", i, se.Edge, sum.triads.counts, oracle.counts)
					}
				}
				if legs.total == 0 || sum.triads.total == 0 {
					t.Fatalf("degenerate stream: no wedges counted")
				}
			})
		}
	}
}

// TestObserveGraphMatchesScan checks Summary.ObserveGraph on a static
// multigraph with a hub, self-loops and parallel edges against the scan.
func TestObserveGraphMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New(graph.WithAutoVertices())
	for _, se := range randomStream(rng, streamShape{vertices: 15, hubFrac: 0.4, loopFrac: 0.1}, 500) {
		if _, err := g.AddStreamEdge(se); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSummary(WithTriadSampling(1))
	s.ObserveGraph(g)
	oracle := NewTriadTable()
	typeOf := func(v graph.VertexID) string {
		vx, _ := g.Vertex(v)
		return vx.Type
	}
	g.Edges(func(e *graph.Edge) bool {
		scanTriads(oracle, g, e, typeOf)
		return true
	})
	if oracle.total == 0 || !sameTriads(s.triads, oracle) {
		t.Fatalf("ObserveGraph triads diverge from the scan: total %d vs %d", s.triads.total, oracle.total)
	}
}

// BenchmarkSummaryObserveHub observes edges at one hub holding 1k, 10k and
// 100k live edges, every edge counted for triads. ns/op is per edge and
// stays flat as the hub's degree grows.
func BenchmarkSummaryObserveHub(b *testing.B) {
	for _, live := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			dyn := graph.NewDynamic(0)
			ses := make([]graph.StreamEdge, live)
			for i := range ses {
				ses[i] = hubEdge(i)
				if _, err := dyn.Apply(ses[i]); err != nil {
					b.Fatal(err)
				}
			}
			s := NewSummary(WithTriadSampling(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(ses[i%live], dyn.Graph())
			}
		})
	}
}

// hubEdge is the i-th edge of a star around vertex 0, alternating
// direction, over three edge types.
func hubEdge(i int) graph.StreamEdge {
	e := graph.Edge{ID: graph.EdgeID(i + 1), Source: 0, Target: graph.VertexID(i%5000 + 1),
		Type: []string{"flow", "dns", "auth"}[i%3], Timestamp: graph.Timestamp(i)}
	if i%2 == 1 {
		e.Source, e.Target = e.Target, e.Source
	}
	return graph.StreamEdge{Edge: e, SourceType: "Host", TargetType: "Host"}
}
