package graph

import (
	"fmt"
	"sort"
)

// Graph is an in-memory multi-relational property multigraph. It maintains
// per-vertex incidence lists split by direction, per-vertex leg counts (see
// Leg), plus type indexes used by the query planner and the local-search
// primitive.
//
// Graph is not safe for concurrent mutation; the continuous engine serializes
// updates per stream partition. Read-only concurrent access after loading is
// safe.
type Graph struct {
	vertices map[VertexID]*Vertex
	edges    map[EdgeID]*Edge

	// adj holds the incidence of every vertex with at least one incident
	// edge; an entry is dropped with the vertex's last incident edge.
	adj map[VertexID]*incidence

	verticesByType map[string]map[VertexID]struct{}
	edgesByType    map[string]int

	// autoVertex controls whether AddEdge creates missing endpoints with an
	// empty type instead of failing.
	autoVertex bool
}

// incidence is one vertex's incidence lists and their leg counts. Most
// vertices have a single leg, which leg0 holds without an allocation.
type incidence struct {
	out, in []*Edge
	legs    []Leg
	leg0    [1]Leg
}

// Leg counts the incidence-list entries of one vertex that share an edge
// type and an orientation. Out is Source == vertex for either list's
// entries, so a self-loop counts twice as out. The triad statistics read
// these counts, so their upkeep does not depend on the vertex's degree.
type Leg struct {
	Type  string
	Count int32
	Out   bool
}

// addLeg adds delta to the (typ, out) leg, dropping it when it reaches zero.
func (a *incidence) addLeg(typ string, out bool, delta int32) {
	for i := range a.legs {
		l := &a.legs[i]
		if l.Type != typ || l.Out != out {
			continue
		}
		if l.Count += delta; l.Count == 0 {
			last := len(a.legs) - 1
			a.legs[i] = a.legs[last]
			a.legs[last] = Leg{}
			a.legs = a.legs[:last]
		}
		return
	}
	a.legs = append(a.legs, Leg{Type: typ, Out: out, Count: delta})
}

// Option configures a Graph at construction time.
type Option func(*Graph)

// WithAutoVertices makes AddEdge silently create endpoints that have not
// been added explicitly. Stream ingestion uses this because vertex metadata
// often arrives embedded in the first edge that touches the vertex.
func WithAutoVertices() Option {
	return func(g *Graph) { g.autoVertex = true }
}

// New constructs an empty graph.
func New(opts ...Option) *Graph {
	g := &Graph{
		vertices:       make(map[VertexID]*Vertex),
		edges:          make(map[EdgeID]*Edge),
		adj:            make(map[VertexID]*incidence),
		verticesByType: make(map[string]map[VertexID]struct{}),
		edgesByType:    make(map[string]int),
	}
	for _, o := range opts {
		o(g)
	}
	return g
}

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex inserts or updates a vertex. If a vertex with the same ID exists
// its type is overwritten when the new type is non-empty and its attributes
// are merged.
//
// The graph takes the attribute map by reference: callers must not mutate
// v.Attrs after insertion. Updates never mutate a stored map in place
// (Attributes.Merge is copy-on-write), so sources are free to share one
// attribute map across many inserted vertices and edges.
func (g *Graph) AddVertex(v Vertex) *Vertex {
	existing, ok := g.vertices[v.ID]
	if !ok {
		nv := &Vertex{ID: v.ID, Type: v.Type, Attrs: v.Attrs}
		g.vertices[v.ID] = nv
		g.indexVertexType(nv)
		return nv
	}
	if v.Type != "" && v.Type != existing.Type {
		g.unindexVertexType(existing)
		existing.Type = v.Type
		g.indexVertexType(existing)
	}
	// Streams repeat endpoint metadata on every edge (sharded routing
	// requires it); skip the copy-on-write merge entirely when it would
	// change nothing, which is the overwhelmingly common case.
	if len(v.Attrs) > 0 && !existing.Attrs.Covers(v.Attrs) {
		existing.Attrs = existing.Attrs.Merge(v.Attrs)
	}
	return existing
}

func (g *Graph) indexVertexType(v *Vertex) {
	set, ok := g.verticesByType[v.Type]
	if !ok {
		set = make(map[VertexID]struct{})
		g.verticesByType[v.Type] = set
	}
	set[v.ID] = struct{}{}
}

func (g *Graph) unindexVertexType(v *Vertex) {
	if set, ok := g.verticesByType[v.Type]; ok {
		delete(set, v.ID)
		if len(set) == 0 {
			delete(g.verticesByType, v.Type)
		}
	}
}

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) (*Vertex, bool) {
	v, ok := g.vertices[id]
	return v, ok
}

// HasVertex reports whether the vertex exists.
func (g *Graph) HasVertex(id VertexID) bool {
	_, ok := g.vertices[id]
	return ok
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (*Edge, bool) {
	e, ok := g.edges[id]
	return e, ok
}

// HasEdge reports whether the edge exists.
func (g *Graph) HasEdge(id EdgeID) bool {
	_, ok := g.edges[id]
	return ok
}

// AddEdge inserts a directed edge. Both endpoints must already exist unless
// the graph was built WithAutoVertices. Duplicate edge IDs are rejected.
//
// As with AddVertex, the attribute map is taken by reference and must not be
// mutated by the caller after insertion; the graph itself never modifies
// edge attributes.
func (g *Graph) AddEdge(e Edge) (*Edge, error) {
	if e.ID == ReservedEdgeID || e.Source == ReservedVertexID || e.Target == ReservedVertexID {
		return nil, &EdgeError{ID: e.ID, Err: ErrReservedID}
	}
	if _, dup := g.edges[e.ID]; dup {
		return nil, &EdgeError{ID: e.ID, Err: ErrDuplicateEdge}
	}
	if !g.HasVertex(e.Source) {
		if !g.autoVertex {
			return nil, &VertexError{ID: e.Source, Err: ErrDanglingEdge}
		}
		g.AddVertex(Vertex{ID: e.Source})
	}
	if !g.HasVertex(e.Target) {
		if !g.autoVertex {
			return nil, &VertexError{ID: e.Target, Err: ErrDanglingEdge}
		}
		g.AddVertex(Vertex{ID: e.Target})
	}
	ne := new(Edge)
	*ne = e
	g.edges[ne.ID] = ne
	src := g.incidenceOf(ne.Source)
	ne.outIdx = int32(len(src.out))
	src.out = append(src.out, ne)
	src.addLeg(ne.Type, true, 1)
	dst := g.incidenceOf(ne.Target)
	ne.inIdx = int32(len(dst.in))
	dst.in = append(dst.in, ne)
	dst.addLeg(ne.Type, ne.Source == ne.Target, 1)
	g.edgesByType[ne.Type]++
	return ne, nil
}

func (g *Graph) incidenceOf(v VertexID) *incidence {
	a := g.adj[v]
	if a == nil {
		a = new(incidence)
		a.legs = a.leg0[:0]
		g.adj[v] = a
	}
	return a
}

// AddStreamEdge applies a StreamEdge: endpoint metadata is upserted and the
// edge added. It is the ingestion path used by the dynamic graph.
func (g *Graph) AddStreamEdge(se StreamEdge) (*Edge, error) {
	g.AddVertex(Vertex{ID: se.Edge.Source, Type: se.SourceType, Attrs: se.SourceAttrs})
	g.AddVertex(Vertex{ID: se.Edge.Target, Type: se.TargetType, Attrs: se.TargetAttrs})
	return g.AddEdge(se.Edge)
}

// RemoveEdge deletes an edge from the graph and its incidence lists.
// Endpoint vertices are retained even if they become isolated; callers that
// want compaction can call RemoveIsolatedVertex explicitly.
func (g *Graph) RemoveEdge(id EdgeID) error {
	e, ok := g.edges[id]
	if !ok {
		return &EdgeError{ID: id, Err: ErrEdgeNotFound}
	}
	delete(g.edges, id)
	// The last entry of each list moves into the vacated slot. Matchers
	// iterate these lists, so the order after a removal is part of the
	// graph's observable behaviour.
	src := g.adj[e.Source]
	last := len(src.out) - 1
	moved := src.out[last]
	src.out[e.outIdx], moved.outIdx = moved, e.outIdx
	src.out[last] = nil
	src.out = src.out[:last]
	src.addLeg(e.Type, true, -1)
	dst := g.adj[e.Target]
	last = len(dst.in) - 1
	moved = dst.in[last]
	dst.in[e.inIdx], moved.inIdx = moved, e.inIdx
	dst.in[last] = nil
	dst.in = dst.in[:last]
	dst.addLeg(e.Type, e.Source == e.Target, -1)
	g.dropIfIsolated(e.Source, src)
	g.dropIfIsolated(e.Target, dst)
	if g.edgesByType[e.Type]--; g.edgesByType[e.Type] <= 0 {
		delete(g.edgesByType, e.Type)
	}
	return nil
}

func (g *Graph) dropIfIsolated(v VertexID, a *incidence) {
	if len(a.out) == 0 && len(a.in) == 0 {
		delete(g.adj, v)
	}
}

// RemoveIsolatedVertex removes v if it has no incident edges. It returns
// true when the vertex was removed.
func (g *Graph) RemoveIsolatedVertex(id VertexID) bool {
	v, ok := g.vertices[id]
	if !ok {
		return false
	}
	if g.adj[id] != nil {
		return false
	}
	g.unindexVertexType(v)
	delete(g.vertices, id)
	return true
}

// OutEdges returns the edges leaving v. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) OutEdges(v VertexID) []*Edge {
	if a := g.adj[v]; a != nil {
		return a.out
	}
	return nil
}

// InEdges returns the edges entering v. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) InEdges(v VertexID) []*Edge {
	if a := g.adj[v]; a != nil {
		return a.in
	}
	return nil
}

// Legs returns v's leg counts, one per (edge type, orientation) present in
// its incidence lists, in no particular order. The returned slice is owned
// by the graph and must not be mutated.
func (g *Graph) Legs(v VertexID) []Leg {
	if a := g.adj[v]; a != nil {
		return a.legs
	}
	return nil
}

// IncidentEdges returns all edges touching v, outgoing first.
func (g *Graph) IncidentEdges(v VertexID) []*Edge {
	out, in := g.OutEdges(v), g.InEdges(v)
	if len(in) == 0 {
		return out
	}
	all := make([]*Edge, 0, len(out)+len(in))
	all = append(all, out...)
	all = append(all, in...)
	return all
}

// Degree returns the total degree (in + out) of v.
func (g *Graph) Degree(v VertexID) int { return len(g.OutEdges(v)) + len(g.InEdges(v)) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.OutEdges(v)) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.InEdges(v)) }

// Neighbors returns the distinct vertices adjacent to v in either direction.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	seen := make(map[VertexID]struct{})
	var out []VertexID
	for _, e := range g.OutEdges(v) {
		if _, ok := seen[e.Target]; !ok {
			seen[e.Target] = struct{}{}
			out = append(out, e.Target)
		}
	}
	for _, e := range g.InEdges(v) {
		if _, ok := seen[e.Source]; !ok {
			seen[e.Source] = struct{}{}
			out = append(out, e.Source)
		}
	}
	return out
}

// EdgesBetween returns every edge from src to dst (directed).
func (g *Graph) EdgesBetween(src, dst VertexID) []*Edge {
	var out []*Edge
	for _, e := range g.OutEdges(src) {
		if e.Target == dst {
			out = append(out, e)
		}
	}
	return out
}

// VerticesOfType returns the IDs of all vertices with the given type label,
// in ascending order (deterministic for tests and planning).
func (g *Graph) VerticesOfType(t string) []VertexID {
	set := g.verticesByType[t]
	out := make([]VertexID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountVerticesOfType returns the number of vertices with the given type.
func (g *Graph) CountVerticesOfType(t string) int { return len(g.verticesByType[t]) }

// CountEdgesOfType returns the number of edges with the given type.
func (g *Graph) CountEdgesOfType(t string) int { return g.edgesByType[t] }

// VertexTypes returns the distinct vertex type labels present in the graph.
func (g *Graph) VertexTypes() []string {
	out := make([]string, 0, len(g.verticesByType))
	for t := range g.verticesByType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// EdgeTypes returns the distinct edge type labels present in the graph.
func (g *Graph) EdgeTypes() []string {
	out := make([]string, 0, len(g.edgesByType))
	for t := range g.edgesByType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Vertices calls fn for every vertex until fn returns false.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.vertices {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge until fn returns false.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// EdgeIDs returns all edge IDs in ascending order.
func (g *Graph) EdgeIDs() []EdgeID {
	out := make([]EdgeID, 0, len(g.edges))
	for id := range g.edges {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VertexIDs returns all vertex IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	out := make([]VertexID, 0, len(g.vertices))
	for id := range g.vertices {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.autoVertex = g.autoVertex
	for _, v := range g.vertices {
		c.AddVertex(*v)
	}
	for _, e := range g.edges {
		if _, err := c.AddEdge(*e); err != nil {
			// Cannot happen: the source graph is consistent by construction.
			panic(fmt.Sprintf("graph: clone failed: %v", err))
		}
	}
	return c
}

// String summarizes the graph size.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, vertexTypes=%d, edgeTypes=%d)",
		len(g.vertices), len(g.edges), len(g.verticesByType), len(g.edgesByType))
}
