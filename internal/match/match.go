// Package match defines the partial-match representation shared by the
// isomorphism matcher, the SJ-Tree and the continuous engine.
//
// A Match binds a subset of a query graph's vertices and edges to concrete
// data-graph vertices and edges, together with the temporal interval spanned
// by the bound data edges. Matches are joined pairwise as they climb the
// SJ-Tree (paper §4.2); Join enforces the subgraph-isomorphism requirement
// that the combined vertex binding remain one-to-one.
//
// The representation is deliberately flat: pattern vertex and edge IDs are
// dense (assigned from 0 in registration order by the query builder), so the
// bindings are plain slices indexed by pattern ID rather than maps. That
// makes Clone a pair of copies, Compatible/Join linear scans and the
// canonical match identity a cached 64-bit hash — the per-edge hot path
// allocates no map buckets and builds no strings. String-valued identities
// (Signature, ProjectKey) survive only at the export/report boundary.
package match

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// unbound is the "no binding" sentinel of the dense binding slices. The
// all-ones data IDs are reserved — graph.AddEdge rejects them at the ingest
// boundary (graph.ErrReservedID) — so the sentinel can never collide with a
// real binding. Both binding slices store raw uint64 IDs (vertex and edge
// IDs are uint64 underneath) so a single backing array can serve both.
const unbound = ^uint64(0)

// Match is a (possibly partial) homomorphic image of a query subgraph in the
// data graph under the one-to-one vertex correspondence required by subgraph
// isomorphism. The zero value is an empty match ready for extension.
type Match struct {
	// vertices[qv] is the data vertex bound to pattern vertex qv, or
	// unbound. The slice grows on demand; NewForQuery sizes it up front,
	// sharing one backing array with edges (capacity-clipped so growth can
	// never clobber the neighbour).
	vertices []uint64
	// edges[qe] is the data edge bound to pattern edge qe, or unbound.
	edges []uint64
	// nv and ne count the bound entries so NumVertices/NumEdges stay O(1).
	nv, ne int

	// Span is the closed interval covering the timestamps of all bound data
	// edges; it is the τ(g) of the paper.
	Span graph.Interval
	// spanSet records whether Span has been initialized by at least one edge.
	spanSet bool

	// hash caches EdgeSetHash; hashOK is cleared whenever an edge binding
	// changes.
	hash   uint64
	hashOK bool
}

// New returns an empty match.
func New() *Match { return &Match{} }

// NewSized returns an empty match with binding storage for nv pattern
// vertices and ne pattern edges, avoiding any later growth. Both binding
// slices share one allocation.
func NewSized(nv, ne int) *Match {
	m := &Match{}
	if nv+ne > 0 {
		buf := make([]uint64, nv+ne)
		for i := range buf {
			buf[i] = unbound
		}
		m.vertices = buf[:nv:nv]
		m.edges = buf[nv : nv+ne : nv+ne]
	}
	return m
}

// NewForQuery returns an empty match sized for the query graph q.
func NewForQuery(q *query.Graph) *Match {
	return NewSized(q.NumVertices(), q.NumEdges())
}

// NewFromEdge builds a single-edge match binding pattern edge qe (with
// pattern endpoints qsrc->qdst) to data edge de.
func NewFromEdge(qe query.EdgeID, qsrc, qdst query.VertexID, de *graph.Edge, reversed bool) *Match {
	m := New()
	if reversed {
		m.BindVertex(qsrc, de.Target)
		m.BindVertex(qdst, de.Source)
	} else {
		m.BindVertex(qsrc, de.Source)
		m.BindVertex(qdst, de.Target)
	}
	m.BindEdge(qe, de.ID, de.Timestamp)
	return m
}

// growVertices extends the vertex slice to hold at least n entries.
func (m *Match) growVertices(n int) {
	for len(m.vertices) < n {
		m.vertices = append(m.vertices, unbound)
	}
}

// growEdges extends the edge slice to hold at least n entries.
func (m *Match) growEdges(n int) {
	for len(m.edges) < n {
		m.edges = append(m.edges, unbound)
	}
}

// NumVertices returns the number of bound pattern vertices.
func (m *Match) NumVertices() int { return m.nv }

// NumEdges returns the number of bound pattern edges.
func (m *Match) NumEdges() int { return m.ne }

// HasSpan reports whether at least one edge has contributed to the temporal
// span.
func (m *Match) HasSpan() bool { return m.spanSet }

// Vertex returns the data vertex bound to the pattern vertex, if any.
func (m *Match) Vertex(q query.VertexID) (graph.VertexID, bool) {
	if int(q) < 0 || int(q) >= len(m.vertices) || m.vertices[q] == unbound {
		return 0, false
	}
	return graph.VertexID(m.vertices[q]), true
}

// Edge returns the data edge bound to the pattern edge, if any.
func (m *Match) Edge(q query.EdgeID) (graph.EdgeID, bool) {
	if int(q) < 0 || int(q) >= len(m.edges) || m.edges[q] == unbound {
		return 0, false
	}
	return graph.EdgeID(m.edges[q]), true
}

// ForEachVertex invokes fn for every bound pattern vertex in ascending
// pattern-ID order, stopping early when fn returns false.
func (m *Match) ForEachVertex(fn func(qv query.VertexID, dv graph.VertexID) bool) {
	for qv, dv := range m.vertices {
		if dv == unbound {
			continue
		}
		if !fn(query.VertexID(qv), graph.VertexID(dv)) {
			return
		}
	}
}

// ForEachEdge invokes fn for every bound pattern edge in ascending
// pattern-ID order, stopping early when fn returns false.
func (m *Match) ForEachEdge(fn func(qe query.EdgeID, de graph.EdgeID) bool) {
	for qe, de := range m.edges {
		if de == unbound {
			continue
		}
		if !fn(query.EdgeID(qe), graph.EdgeID(de)) {
			return
		}
	}
}

// CanBindVertex reports whether BindVertex(q, d) would succeed, without
// mutating the match: q must be unbound or already bound to d, and d must
// not be bound to any other pattern vertex (injectivity).
func (m *Match) CanBindVertex(q query.VertexID, d graph.VertexID) bool {
	if int(q) < len(m.vertices) && m.vertices[q] != unbound {
		return m.vertices[q] == uint64(d)
	}
	for _, bound := range m.vertices {
		if bound == uint64(d) {
			return false
		}
	}
	return true
}

// BindVertex records that pattern vertex q is matched by data vertex d.
// It returns false (and leaves the match unchanged) when the binding would
// conflict with an existing binding of q or violate injectivity.
func (m *Match) BindVertex(q query.VertexID, d graph.VertexID) bool {
	if !m.CanBindVertex(q, d) {
		return false
	}
	if int(q) < len(m.vertices) && m.vertices[q] == uint64(d) {
		return true
	}
	m.growVertices(int(q) + 1)
	m.vertices[q] = uint64(d)
	m.nv++
	return true
}

// BindEdge records that pattern edge q is matched by data edge d with the
// given timestamp, extending the temporal span. It returns false when q is
// already bound to a different data edge.
func (m *Match) BindEdge(q query.EdgeID, d graph.EdgeID, ts graph.Timestamp) bool {
	if int(q) < len(m.edges) && m.edges[q] != unbound {
		return m.edges[q] == uint64(d)
	}
	m.growEdges(int(q) + 1)
	m.edges[q] = uint64(d)
	m.ne++
	m.hashOK = false
	if m.spanSet {
		m.Span = m.Span.Extend(ts)
	} else {
		m.Span = graph.NewInterval(ts)
		m.spanSet = true
	}
	return true
}

// UsesDataVertex reports whether any pattern vertex is bound to d.
func (m *Match) UsesDataVertex(d graph.VertexID) bool {
	for _, bound := range m.vertices {
		if bound == uint64(d) {
			return true
		}
	}
	return false
}

// UsesDataEdge reports whether any pattern edge is bound to d.
func (m *Match) UsesDataEdge(d graph.EdgeID) bool {
	for _, bound := range m.edges {
		if bound == uint64(d) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the match.
func (m *Match) Clone() *Match {
	c := &Match{
		nv:      m.nv,
		ne:      m.ne,
		Span:    m.Span,
		spanSet: m.spanSet,
		hash:    m.hash,
		hashOK:  m.hashOK,
	}
	if nv, ne := len(m.vertices), len(m.edges); nv+ne > 0 {
		buf := make([]uint64, nv+ne)
		copy(buf, m.vertices)
		copy(buf[nv:], m.edges)
		c.vertices = buf[:nv:nv]
		c.edges = buf[nv : nv+ne : nv+ne]
	}
	return c
}

// Compatible reports whether m and o can be joined into a single consistent
// match: pattern vertices bound by both must map to the same data vertex,
// pattern edges bound by both must map to the same data edge, and the union
// of the vertex bindings must remain injective (no two distinct pattern
// vertices sharing a data vertex).
func (m *Match) Compatible(o *Match) bool {
	shared := len(m.vertices)
	if len(o.vertices) < shared {
		shared = len(o.vertices)
	}
	for qv := 0; qv < shared; qv++ {
		mv, ov := m.vertices[qv], o.vertices[qv]
		if mv != unbound && ov != unbound && mv != ov {
			return false
		}
	}
	// Injectivity across the union: a data vertex bound by o at qv must not
	// be bound by m at a different pattern vertex. Pattern graphs are tiny
	// (a handful of vertices), so the nested scan beats building a reverse
	// map.
	for qv, ov := range o.vertices {
		if ov == unbound {
			continue
		}
		for qv2, mv := range m.vertices {
			if mv == ov && qv2 != qv {
				return false
			}
		}
	}
	shared = len(m.edges)
	if len(o.edges) < shared {
		shared = len(o.edges)
	}
	for qe := 0; qe < shared; qe++ {
		me, oe := m.edges[qe], o.edges[qe]
		if me != unbound && oe != unbound && me != oe {
			return false
		}
	}
	return true
}

// Join returns a new match combining the bindings of m and o, or nil when
// they are not Compatible. The temporal span of the result is the union of
// the two spans, matching the paper's join semantics (the joined subgraph's
// τ is the interval between its earliest and latest edge).
func (m *Match) Join(o *Match) *Match {
	if !m.Compatible(o) {
		return nil
	}
	j := m.Clone()
	j.growVertices(len(o.vertices))
	for qv, ov := range o.vertices {
		if ov != unbound && j.vertices[qv] == unbound {
			j.vertices[qv] = ov
			j.nv++
		}
	}
	j.growEdges(len(o.edges))
	for qe, oe := range o.edges {
		if oe != unbound && j.edges[qe] == unbound {
			j.edges[qe] = oe
			j.ne++
			j.hashOK = false
		}
	}
	if o.spanSet {
		if j.spanSet {
			j.Span = j.Span.Union(o.Span)
		} else {
			j.Span = o.Span
			j.spanSet = true
		}
	}
	return j
}

// Remap returns a copy of the match re-expressed in another pattern-ID
// space: every binding of source pattern vertex qv moves to vmap[qv] and
// every binding of source pattern edge qe moves to emap[qe]. The temporal
// span is copied verbatim — the data edges are unchanged, only the pattern
// side of the binding is renamed. nv and ne size the destination space.
//
// The shared-plan evaluation DAG (internal/mqo) lives on this operation:
// matches are computed once in a canonical fragment's ID space and remapped
// — two array permutes, no graph search — into each parent fragment's or
// consumer query's space. Both maps must cover every bound source ID; IDs
// mapped to out-of-range slots panic, as that is a canonicalization bug, not
// a data condition.
func (m *Match) Remap(nv, ne int, vmap []query.VertexID, emap []query.EdgeID) *Match {
	r := NewSized(nv, ne)
	for qv, dv := range m.vertices {
		if dv == unbound {
			continue
		}
		r.vertices[vmap[qv]] = dv
		r.nv++
	}
	for qe, de := range m.edges {
		if de == unbound {
			continue
		}
		r.edges[emap[qe]] = de
		r.ne++
	}
	r.Span = m.Span
	r.spanSet = m.spanSet
	return r
}

// mix64 is the splitmix64 finalizer, a fast 64-bit bijective mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// edgeSetSeed is the hash of the empty edge set.
const edgeSetSeed = 0x9e3779b97f4a7c15

// EdgeSetHash returns a 64-bit hash of the exact pattern-edge → data-edge
// binding, the integer replacement for the legacy Signature string on the
// hot path. Two matches with equal bindings always hash equally; hash-keyed
// consumers (the SJ-Tree dedup sets, the shard merge dedup) resolve the
// astronomically unlikely collisions with SameEdges equality buckets. The
// hash is cached and only recomputed after an edge binding changes.
func (m *Match) EdgeSetHash() uint64 {
	if m.hashOK {
		return m.hash
	}
	h := uint64(edgeSetSeed)
	for qe, de := range m.edges {
		if de == unbound {
			continue
		}
		// XOR-accumulating per-pair mixes keeps the hash independent of
		// iteration details while (qe, de) stay bound together.
		h ^= mix64(de ^ mix64(uint64(qe)+edgeSetSeed))
	}
	m.hash, m.hashOK = h, true
	return h
}

// SameEdges reports whether m and o bind exactly the same pattern edges to
// the same data edges — the equality behind Signature() identity, without
// building the string.
func (m *Match) SameEdges(o *Match) bool {
	if m.ne != o.ne {
		return false
	}
	long, short := m.edges, o.edges
	if len(long) < len(short) {
		long, short = short, long
	}
	for qe, de := range short {
		if de != long[qe] {
			return false
		}
	}
	for _, de := range long[len(short):] {
		if de != unbound {
			return false
		}
	}
	return true
}

// EdgeSet is a compact, immutable copy of a match's pattern-edge →
// data-edge binding: the identity of the match and nothing else. Long-lived
// dedup sets (e.g. the SJ-Tree's emitted-match set) store EdgeSets so they
// never pin whole Match values — vertex bindings, spans and cache fields —
// for as long as an entry stays in the retention window.
type EdgeSet struct {
	edges []uint64 // dense binding, trailing unbound slots trimmed
}

// EdgeSet returns a compact copy of the match's edge binding.
func (m *Match) EdgeSet() EdgeSet {
	e := m.edges
	for len(e) > 0 && e[len(e)-1] == unbound {
		e = e[:len(e)-1]
	}
	out := make([]uint64, len(e))
	copy(out, e)
	return EdgeSet{edges: out}
}

// SameEdgeSet reports whether the match's edge binding equals s — the
// EdgeSet counterpart of SameEdges.
func (m *Match) SameEdgeSet(s EdgeSet) bool {
	if len(m.edges) < len(s.edges) {
		// s binds a pattern edge beyond m's slice (its last entry is always
		// bound, trailing unbound slots being trimmed).
		return false
	}
	for qe, de := range s.edges {
		if m.edges[qe] != de {
			return false
		}
	}
	for _, de := range m.edges[len(s.edges):] {
		if de != unbound {
			return false
		}
	}
	return true
}

// projectionInline is how many cut vertices a ProjectionKey stores exactly;
// wider cuts fold the remainder into the hash word. Collisions there only
// cost failed join attempts (Join re-checks compatibility), never
// correctness.
const projectionInline = 4

// ProjectionKey is the comparable hash-partition key of a match's projection
// onto a cut-vertex list. It replaces the legacy "v1|v2" ProjectKey strings
// inside the SJ-Tree.
type ProjectionKey struct {
	n      uint8
	inline [projectionInline]uint64
	hash   uint64
}

// Projection computes the match's projection key onto the given pattern
// vertices, in the order given. Unbound vertices project to a reserved
// sentinel, mirroring the "_" of the legacy string key.
func (m *Match) Projection(vertices []query.VertexID) ProjectionKey {
	k := ProjectionKey{n: uint8(len(vertices))}
	for i, qv := range vertices {
		dv := uint64(unbound)
		if int(qv) >= 0 && int(qv) < len(m.vertices) {
			dv = m.vertices[qv]
		}
		if i < projectionInline {
			k.inline[i] = dv
		} else {
			k.hash ^= mix64(dv ^ mix64(uint64(i)))
		}
	}
	return k
}

// ProjectKey computes a deterministic string key for the match restricted to
// the given pattern vertices, in the order given. Missing bindings render as
// "_". The SJ-Tree now partitions on the integer Projection key; this string
// form remains for debugging and reports.
func (m *Match) ProjectKey(vertices []query.VertexID) string {
	var sb strings.Builder
	for i, qv := range vertices {
		if i > 0 {
			sb.WriteByte('|')
		}
		if dv, ok := m.Vertex(qv); ok {
			sb.WriteString(strconv.FormatUint(uint64(dv), 10))
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Signature returns a canonical string identifying the exact set of data
// edges bound by the match: the "qe:de" pairs, comma-joined in ascending
// string order. Two matches with the same signature describe the same data
// subgraph assignment. The engine's hot path deduplicates on
// EdgeSetHash/SameEdges instead; the string form survives at the
// export/report boundary (export.MatchReport, remote match-set comparison)
// and is byte-identical to the pre-refactor format. It is built with a
// single allocation for patterns of up to 32 edges.
func (m *Match) Signature() string {
	var orderBuf [32]int32
	order := orderBuf[:0]
	size := -1 // no comma before the first pair
	for qe, de := range m.edges {
		if de == unbound {
			continue
		}
		order = append(order, int32(qe))
		size += decimalLen(uint64(qe)) + decimalLen(de) + 2
	}
	if len(order) == 0 {
		return ""
	}
	// The pairs sort by their "qe:" prefix, pattern-edge IDs being
	// distinct. Below 10 that is index order, which order already has;
	// wider patterns need the string order ("10:" < "1:" < "2:").
	if len(m.edges) > 10 {
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && sigPrefixLess(order[j], order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for i, qe := range order {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.Write(strconv.AppendInt(num[:0], int64(qe), 10))
		sb.WriteByte(':')
		sb.Write(strconv.AppendUint(num[:0], m.edges[qe], 10))
	}
	return sb.String()
}

// sigPrefixLess orders two distinct pattern-edge IDs as their "qe:"
// signature prefixes compare as strings.
func sigPrefixLess(a, b int32) bool {
	var ab, bb [12]byte
	x := append(strconv.AppendInt(ab[:0], int64(a), 10), ':')
	y := append(strconv.AppendInt(bb[:0], int64(b), 10), ':')
	return string(x) < string(y)
}

// decimalLen returns the number of decimal digits of x.
func decimalLen(x uint64) int {
	n := 1
	for x >= 10 {
		x /= 10
		n++
	}
	return n
}

// Complete reports whether the match covers every vertex and edge of q.
func (m *Match) Complete(q *query.Graph) bool {
	return m.nv == q.NumVertices() && m.ne == q.NumEdges()
}

// WithinWindow reports whether the temporal span of the match is strictly
// inside the window w (τ(g) < tW). Matches with no bound edges are trivially
// within any window; a zero window means unbounded.
func (m *Match) WithinWindow(w time.Duration) bool {
	if w <= 0 || !m.spanSet {
		return true
	}
	return m.Span.Within(w)
}

// String renders the match for debugging: pattern-vertex bindings in
// pattern order and the temporal span.
func (m *Match) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	m.ForEachVertex(func(qv query.VertexID, dv graph.VertexID) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "q%d->v%d", qv, dv)
		return true
	})
	fmt.Fprintf(&sb, "} edges=%d span=%s", m.ne, m.Span)
	return sb.String()
}
