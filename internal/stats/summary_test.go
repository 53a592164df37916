package stats

import (
	"strings"
	"sync"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
)

func flowEdge(id graph.EdgeID, src, dst graph.VertexID, typ, srcT, dstT string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: srcT,
		TargetType: dstT,
	}
}

func TestSummaryTypeDistributions(t *testing.T) {
	s := NewSummary()
	s.Observe(flowEdge(1, 1, 2, "flow", "Host", "Host", 1), nil)
	s.Observe(flowEdge(2, 1, 3, "flow", "Host", "Server", 2), nil)
	s.Observe(flowEdge(3, 2, 3, "dns", "Host", "Server", 3), nil)

	if s.TotalEdges() != 3 {
		t.Fatalf("TotalEdges = %d", s.TotalEdges())
	}
	if s.TotalVertices() != 3 {
		t.Fatalf("TotalVertices = %d", s.TotalVertices())
	}
	if s.EdgeTypeCount("flow") != 2 || s.EdgeTypeCount("dns") != 1 {
		t.Fatalf("edge type counts wrong")
	}
	if s.VertexTypeCount("Host") != 2 || s.VertexTypeCount("Server") != 1 {
		t.Fatalf("vertex type counts wrong: Host=%d Server=%d",
			s.VertexTypeCount("Host"), s.VertexTypeCount("Server"))
	}
	dist := s.EdgeTypeDistribution()
	if len(dist) != 2 || dist[0].Type != "flow" || dist[0].Count != 2 {
		t.Fatalf("EdgeTypeDistribution = %v", dist)
	}
	vdist := s.VertexTypeDistribution()
	if len(vdist) != 2 || vdist[0].Type != "Host" {
		t.Fatalf("VertexTypeDistribution = %v", vdist)
	}
}

func TestSummaryVertexRetyping(t *testing.T) {
	s := NewSummary()
	// First sighting has no type, second supplies one.
	s.Observe(flowEdge(1, 1, 2, "flow", "", "Host", 1), nil)
	s.Observe(flowEdge(2, 1, 3, "flow", "Workstation", "Host", 2), nil)
	if s.VertexTypeCount("Workstation") != 1 {
		t.Fatalf("late-arriving vertex type not recorded")
	}
	if s.VertexTypeCount("") != 0 {
		t.Fatalf("untyped count should drop after reclassification, got %d", s.VertexTypeCount(""))
	}
}

func TestSummaryMeanDegree(t *testing.T) {
	s := NewSummary()
	if s.MeanDegree() != 0 {
		t.Fatalf("empty summary mean degree should be 0")
	}
	s.Observe(flowEdge(1, 1, 2, "flow", "Host", "Host", 1), nil)
	s.Observe(flowEdge(2, 1, 3, "flow", "Host", "Host", 2), nil)
	// degrees: v1=2, v2=1, v3=1 → mean 4/3
	if got := s.MeanDegree(); got < 1.32 || got > 1.34 {
		t.Fatalf("MeanDegree = %v", got)
	}
}

func TestSummaryTriadCollection(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	s := NewSummary(WithTriadSampling(1))
	apply := func(se graph.StreamEdge) {
		if _, err := g.AddStreamEdge(se); err != nil {
			t.Fatal(err)
		}
		s.Observe(se, g)
	}
	// Build a wedge: a -req-> b, b -reply-> c. The second edge forms one
	// triad centred at b.
	apply(flowEdge(1, 1, 2, "req", "Host", "Host", 1))
	apply(flowEdge(2, 2, 3, "reply", "Host", "Host", 2))

	dist := s.TriadDistribution()
	if len(dist) == 0 {
		t.Fatalf("no triads recorded")
	}
	key := canonicalTriad("Host", "reply", true, "req", false)
	if s.TriadFrequency(key) == 0 {
		t.Fatalf("expected req/reply triad centred at Host, have %v", dist)
	}
}

func TestSummaryTriadSamplingDisabled(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	s := NewSummary(WithTriadSampling(0))
	for i := 0; i < 10; i++ {
		se := flowEdge(graph.EdgeID(i), 0, graph.VertexID(i+1), "flow", "Hub", "Leaf", graph.Timestamp(i))
		if _, err := g.AddStreamEdge(se); err != nil {
			t.Fatal(err)
		}
		s.Observe(se, g)
	}
	if len(s.TriadDistribution()) != 0 {
		t.Fatalf("triads recorded despite sampling disabled")
	}
}

func TestSummaryObserveGraph(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	g.AddVertex(graph.Vertex{ID: 1, Type: "A"})
	g.AddVertex(graph.Vertex{ID: 2, Type: "B"})
	g.AddVertex(graph.Vertex{ID: 3, Type: "B"})
	g.AddEdge(graph.Edge{ID: 1, Source: 1, Target: 2, Type: "x", Timestamp: 1})
	g.AddEdge(graph.Edge{ID: 2, Source: 1, Target: 3, Type: "y", Timestamp: 2})
	s := NewSummary()
	s.ObserveGraph(g)
	if s.TotalEdges() != 2 || s.TotalVertices() != 3 {
		t.Fatalf("ObserveGraph sizes wrong: %d edges %d vertices", s.TotalEdges(), s.TotalVertices())
	}
	if s.VertexTypeCount("B") != 2 {
		t.Fatalf("vertex types from graph not observed")
	}
}

func TestSummaryConcurrentObserve(t *testing.T) {
	s := NewSummary(WithTriadSampling(0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := graph.EdgeID(w*1000 + i)
				s.Observe(flowEdge(id, graph.VertexID(w), graph.VertexID(1000+i%10), "flow", "Host", "Host", graph.Timestamp(i)), nil)
			}
		}(w)
	}
	wg.Wait()
	if s.TotalEdges() != 8000 {
		t.Fatalf("TotalEdges = %d, want 8000", s.TotalEdges())
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSummary()
	s.Observe(flowEdge(1, 1, 2, "flow", "Host", "Host", 1), nil)
	out := s.String()
	if !strings.Contains(out, "flow") || !strings.Contains(out, "Host") {
		t.Fatalf("String() missing content:\n%s", out)
	}
}

func TestTriadKeyCanonical(t *testing.T) {
	a := canonicalTriad("Host", "req", true, "reply", false)
	b := canonicalTriad("Host", "reply", false, "req", true)
	if a != b {
		t.Fatalf("canonical triad keys differ: %v vs %v", a, b)
	}
	if a.String() == "" {
		t.Fatalf("empty triad string")
	}
}

func TestTriadTableSelfLoop(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	g.AddEdge(graph.Edge{ID: 1, Source: 1, Target: 2, Type: "flow", Timestamp: 1})
	loop := &graph.Edge{ID: 2, Source: 1, Target: 1, Type: "beacon", Timestamp: 2}
	g.AddEdge(*loop)
	tt := NewTriadTable()
	tt.ObserveEdge(g, loop, func(graph.VertexID) string { return "Host" })
	// The self loop should only scan vertex 1 once.
	if tt.Total() != 1 {
		t.Fatalf("self-loop wedge counted %d times, want 1", tt.Total())
	}
}
