// Package stats implements the summarization component of StreamWorks
// (paper §4.3): it continuously collects summary statistics about the data
// stream — edge and vertex totals, vertex and edge type distributions and
// the frequency distribution of multi-relational triads — and exposes
// selectivity estimates that the query planner uses to decide the
// decomposition and join order of a query graph.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/streamworks/streamworks/internal/graph"
)

// Summary accumulates streaming statistics about the data graph. It is safe
// for concurrent use; the engine updates it from the ingest path while the
// planner reads it when queries are registered.
type Summary struct {
	mu sync.RWMutex

	totalEdges    uint64
	vertexTypes   map[string]uint64
	edgeTypes     map[string]uint64
	seenVertices  map[graph.VertexID]string
	triads        *TriadTable
	triadSampling int // sample 1 in triadSampling edges for triad counting; 0 disables
	observed      uint64
}

// Option configures a Summary.
type Option func(*Summary)

// WithTriadSampling sets the sampling rate for triad statistics: the wedges
// of one in n arriving edges are counted. n = 1 counts every edge, n = 0
// disables triad collection entirely. A counted edge costs the same at any
// endpoint degree (see TriadTable.ObserveEdge), so the rate trades only the
// triad table's resolution against a small constant per edge.
func WithTriadSampling(n int) Option {
	return func(s *Summary) { s.triadSampling = n }
}

// NewSummary constructs an empty summary. By default triads are sampled on
// every tenth edge, which converges to the same ranking of triad
// frequencies as counting every edge.
func NewSummary(opts ...Option) *Summary {
	s := &Summary{
		vertexTypes:   make(map[string]uint64),
		edgeTypes:     make(map[string]uint64),
		seenVertices:  make(map[graph.VertexID]string),
		triads:        NewTriadTable(),
		triadSampling: 10,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Observe updates the summary with one arriving stream edge. g, when
// non-nil, is the live data graph and is used (subject to sampling) to
// update the triad table with the wedges the new edge closes or extends.
func (s *Summary) Observe(se graph.StreamEdge, g *graph.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()

	s.totalEdges++
	s.observed++
	s.edgeTypes[se.Edge.Type]++

	s.observeVertex(se.Edge.Source, se.SourceType)
	s.observeVertex(se.Edge.Target, se.TargetType)

	if g != nil && s.triadSampling > 0 && s.observed%uint64(s.triadSampling) == 0 {
		s.triads.ObserveEdge(g, &se.Edge, s.vertexTypeOf)
	}
}

// ObserveGraph ingests an entire static graph, as used by offline planning
// over a pre-loaded dataset.
func (s *Summary) ObserveGraph(g *graph.Graph) {
	g.Edges(func(e *graph.Edge) bool {
		var se graph.StreamEdge
		se.Edge = *e
		if v, ok := g.Vertex(e.Source); ok {
			se.SourceType = v.Type
		}
		if v, ok := g.Vertex(e.Target); ok {
			se.TargetType = v.Type
		}
		s.Observe(se, g)
		return true
	})
}

func (s *Summary) observeVertex(id graph.VertexID, typ string) {
	prev, seen := s.seenVertices[id]
	if !seen {
		s.seenVertices[id] = typ
		s.vertexTypes[typ]++
		return
	}
	// An empty type on a later edge never downgrades recorded metadata; a
	// non-empty type reclassifies the vertex (mirrors Graph.AddVertex).
	if typ != "" && typ != prev {
		if s.vertexTypes[prev] > 0 {
			s.vertexTypes[prev]--
		}
		s.vertexTypes[typ]++
		s.seenVertices[id] = typ
	}
}

func (s *Summary) vertexTypeOf(id graph.VertexID) string { return s.seenVertices[id] }

// TotalEdges returns the number of edges observed.
func (s *Summary) TotalEdges() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalEdges
}

// TotalVertices returns the number of distinct vertices observed.
func (s *Summary) TotalVertices() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.seenVertices))
}

// VertexTypeCount returns how many distinct vertices of the given type have
// been observed.
func (s *Summary) VertexTypeCount(typ string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vertexTypes[typ]
}

// EdgeTypeCount returns how many edges of the given type have been observed.
func (s *Summary) EdgeTypeCount(typ string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.edgeTypes[typ]
}

// EdgeTypeDistribution returns (type, count) pairs sorted by descending
// count, then type name.
func (s *Summary) EdgeTypeDistribution() []TypeCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedCounts(s.edgeTypes)
}

// VertexTypeDistribution returns (type, count) pairs sorted by descending
// count, then type name.
func (s *Summary) VertexTypeDistribution() []TypeCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedCounts(s.vertexTypes)
}

// MeanDegree returns the average degree over all observed vertices.
func (s *Summary) MeanDegree() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.seenVertices) == 0 {
		return 0
	}
	// Every edge contributes 2 to the total degree.
	return float64(2*s.totalEdges) / float64(len(s.seenVertices))
}

// TriadDistribution returns the observed multi-relational triad counts,
// most frequent first.
func (s *Summary) TriadDistribution() []TriadCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.triads.Snapshot()
}

// TriadFrequency returns the observed count for a specific triad signature.
func (s *Summary) TriadFrequency(key TriadKey) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.triads.Count(key)
}

// TypeCount is a (label, count) pair in a type distribution.
type TypeCount struct {
	Type  string
	Count uint64
}

func sortedCounts(m map[string]uint64) []TypeCount {
	out := make([]TypeCount, 0, len(m))
	for t, c := range m {
		out = append(out, TypeCount{Type: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// String renders a compact multi-line report of the summary, used by the
// CLI's `stats` command.
func (s *Summary) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "edges=%d vertices=%d meanDegree=%.2f\n",
		s.totalEdges, len(s.seenVertices), func() float64 {
			if len(s.seenVertices) == 0 {
				return 0
			}
			return float64(2*s.totalEdges) / float64(len(s.seenVertices))
		}())
	sb.WriteString("edge types:\n")
	for _, tc := range sortedCounts(s.edgeTypes) {
		fmt.Fprintf(&sb, "  %-24s %d\n", tc.Type, tc.Count)
	}
	sb.WriteString("vertex types:\n")
	for _, tc := range sortedCounts(s.vertexTypes) {
		fmt.Fprintf(&sb, "  %-24s %d\n", tc.Type, tc.Count)
	}
	return sb.String()
}
