package stats

import (
	"fmt"
	"sort"

	"github.com/streamworks/streamworks/internal/graph"
)

// TriadKey identifies a multi-relational triad (a two-edge wedge) by the
// type of its centre vertex, the two edge types involved and their
// orientation relative to the centre. It is the unit of the paper's
// "multi-relational triad distribution" (§4.3): triads capture which pairs
// of relations co-occur around a vertex, which is exactly the information
// the planner needs to estimate the selectivity of two-edge primitives.
type TriadKey struct {
	CenterType string
	// EdgeTypeA and EdgeTypeB are the two relation labels, stored in
	// lexicographic order together with their orientations so that the key
	// is canonical regardless of discovery order.
	EdgeTypeA string
	EdgeTypeB string
	// OutA / OutB report whether the respective edge points away from the
	// centre vertex.
	OutA bool
	OutB bool
}

// canonicalTriad builds a canonical TriadKey from the two (type, outgoing)
// legs of a wedge.
func canonicalTriad(centerType, typeA string, outA bool, typeB string, outB bool) TriadKey {
	if typeB < typeA || (typeB == typeA && outB && !outA) {
		typeA, typeB = typeB, typeA
		outA, outB = outB, outA
	}
	return TriadKey{CenterType: centerType, EdgeTypeA: typeA, EdgeTypeB: typeB, OutA: outA, OutB: outB}
}

// String renders the triad as "(typeA dir) center (typeB dir)".
func (k TriadKey) String() string {
	dir := func(out bool) string {
		if out {
			return "out"
		}
		return "in"
	}
	return fmt.Sprintf("%s[%s %s | %s %s]", k.CenterType, k.EdgeTypeA, dir(k.OutA), k.EdgeTypeB, dir(k.OutB))
}

// TriadCount pairs a triad signature with its observed frequency.
type TriadCount struct {
	Key   TriadKey
	Count uint64
}

// TriadTable accumulates triad frequencies. It is not safe for concurrent
// use on its own; Summary guards it with its own lock.
type TriadTable struct {
	counts map[TriadKey]uint64
	total  uint64
}

// NewTriadTable returns an empty table.
func NewTriadTable() *TriadTable {
	return &TriadTable{counts: make(map[TriadKey]uint64)}
}

// ObserveEdge records every wedge the new edge e forms with edges already
// incident to its endpoints in g. typeOf resolves vertex types for centre
// vertices (the summary knows types even for vertices whose metadata arrived
// on earlier edges).
//
// The wedges come from g's per-vertex leg counts, so the cost is the number
// of distinct (edge type, orientation) legs at the endpoints, not their
// degree. The counts equal those of a scan of both endpoints' incidence
// lists that skips the entries of the edge stored under e.ID.
func (t *TriadTable) ObserveEdge(g *graph.Graph, e *graph.Edge, typeOf func(graph.VertexID) string) {
	stored, _ := g.Edge(e.ID)
	t.observeAround(g, e, stored, e.Source, typeOf)
	if e.Target != e.Source {
		t.observeAround(g, e, stored, e.Target, typeOf)
	}
}

func (t *TriadTable) observeAround(g *graph.Graph, e, stored *graph.Edge, center graph.VertexID, typeOf func(graph.VertexID) string) {
	ct := typeOf(center)
	newOut := e.Source == center
	// The stored edge has one entry at center per endpoint it has there,
	// both in the leg (stored.Type, stored.Source == center).
	var own int32
	if stored != nil {
		if stored.Source == center {
			own++
		}
		if stored.Target == center {
			own++
		}
	}
	for _, l := range g.Legs(center) {
		n := l.Count
		if own > 0 && l.Type == stored.Type && l.Out == (stored.Source == center) {
			n -= own
		}
		if n == 0 {
			continue
		}
		t.counts[canonicalTriad(ct, e.Type, newOut, l.Type, l.Out)] += uint64(n)
		t.total += uint64(n)
	}
}

// Count returns the frequency recorded for the triad key.
func (t *TriadTable) Count(key TriadKey) uint64 { return t.counts[key] }

// Total returns the total number of wedges recorded.
func (t *TriadTable) Total() uint64 { return t.total }

// Snapshot returns all triads sorted by descending count then key string.
func (t *TriadTable) Snapshot() []TriadCount {
	out := make([]TriadCount, 0, len(t.counts))
	for k, c := range t.counts {
		out = append(out, TriadCount{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}
