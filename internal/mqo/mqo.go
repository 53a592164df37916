// Package mqo implements multi-query optimization for the continuous
// engine: one shared evaluation DAG for all registered queries, in place of
// one private SJ-Tree per query.
//
// Every decomposition plan node of every attached query is canonicalized
// (decompose.Canonicalize) and folded into a DAG node keyed by its canonical
// signature — structurally identical subpatterns across queries (shared
// leaves, wedges, whole common subtrees) become one node. Each node owns a
// single deduplicated collection of matches of its canonical fragment, so
// per arriving edge the leaf local search runs once per distinct primitive,
// not once per query, and every partial-match join is computed once and
// fanned out to all parents. This is the shared-decomposition design of
// "Query Optimization for Dynamic Graphs" (arXiv 1407.3745) grafted onto the
// paper's SJ-Tree machinery.
//
// The correctness argument is automorphism closure: a DAG node's collection
// holds ALL embeddings of its canonical fragment (local search is seeded on
// every fragment edge for every arriving data edge, exactly like a private
// leaf), a set closed under fragment automorphisms. Remapping a closed set
// through any fixed isomorphism into a consumer's pattern space yields the
// identical set of query-space matches a private tree would have computed,
// so emissions are byte-identical to per-query mode. Per-query emission
// semantics are preserved exactly: each attachment keeps its own emitted-set
// (exactly-once per distinct data-edge binding, with entries forgotten once
// their oldest edge has left the retention window, exactly like a private
// tree's), its own window filter at delivery, and its own callback.
//
// Like the core engine, a DAG is single-goroutine state: the engine's driver
// goroutine calls ProcessEdge/Attach/Detach/Prune, never concurrently.
package mqo

import (
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/sjtree"
)

// node is one shared DAG node: the match collection of one canonical
// subpattern, referenced by any number of parent nodes (whose joins consume
// it) and consumers (attachments whose plan root it is). A node is dropped
// when its reference count — parents plus consumers — reaches zero.
type node struct {
	sig  string
	frag *decompose.Fragment
	// matcher searches the canonical fragment graph; leaf nodes use it for
	// the per-edge local search.
	matcher *isomorphism.Matcher

	// left/right are the join inputs (nil for leaves). A node's children may
	// be the same shared node on both sides — two links, one child.
	left, right *childLink
	// parents are the reverse links: every (parent, link) pair whose join
	// consumes this node's matches.
	parents []*parentLink
	// consumers are the attachments whose plan root this node is.
	consumers []*consumer

	// coll is the node's deduplicated canonical match collection
	// (Property 3 of the SJ-Tree, shared across all referencing queries).
	coll *sjtree.Collection

	// seeds are the per-fragment-edge local-search seeds (leaves only); the
	// same entries are indexed in DAG.seedsByType.
	seeds []seedRef

	// window is the widest window requirement among all attachments whose
	// DAG reaches this node: 0 means some attachment is unbounded, negative
	// means not yet computed. Matches outside it can never be delivered and
	// are dropped at insertion, like a private tree's per-node window check.
	window time.Duration

	searches     uint64
	joinAttempts uint64
	joinHits     uint64
	windowDrops  uint64
}

// refs is the node's reference count: parent links plus consumers. It is
// derived, never stored, so attach/detach cannot leak or double-free by
// miscounting.
func (n *node) refs() int { return len(n.parents) + len(n.consumers) }

// childLink wires one join input of a parent node: the maps renaming the
// child's canonical space into the parent's, the parent-space cut vertices,
// and the parent-space hash partition of the child's matches (Property 4 —
// the partition lives on the link because the same child feeds different
// parents under different renamings).
type childLink struct {
	child *node
	// vmap/emap rename child canonical vertex/edge IDs to parent canonical
	// IDs (via the source query both fragments were canonicalized from).
	vmap []query.VertexID
	emap []query.EdgeID
	// cuts are the join's cut vertices in parent canonical space, in a
	// canonical (sorted) order shared by both of the parent's links so the
	// two partitions' projection keys are comparable.
	cuts []query.VertexID
	part *sjtree.Partition
}

// parentLink is the reverse edge of a childLink.
type parentLink struct {
	parent *node
	link   *childLink
}

// otherLink returns the sibling link of l within n.
func (n *node) otherLink(l *childLink) *childLink {
	if n.left == l {
		return n.right
	}
	return n.left
}

// seedRef is one (leaf node, fragment edge) local-search seed with its
// precomputed connected order, mirroring core's leafCandidate.
type seedRef struct {
	n     *node
	qe    *query.Edge
	order []query.EdgeID
}

// consumer is one attachment subscribed to a node's complete matches.
type consumer struct {
	att *Attachment
}

// DAG is the shared evaluation DAG. It is not safe for concurrent use.
type DAG struct {
	g *graph.Dynamic

	nodes map[string]*node
	// order lists node signatures in creation order for deterministic
	// iteration (stats, pruning).
	order []string

	// seedsByType indexes leaf seeds by required edge type; "" holds
	// wildcard pattern edges every arriving edge must be tested against.
	seedsByType map[string][]seedRef

	atts     map[string]*Attachment
	attOrder []string

	localSearches uint64
	sharedHits    uint64

	// prims is the per-edge scratch buffer for local-search results; only
	// the backing array is reused, the matches are owned by the DAG once
	// inserted.
	prims []*match.Match

	// Observability, resolved once like core's engineObs: wall time only
	// ever flows through the obs.Clock seam.
	obsEnabled bool
	clock      obs.Clock
	hLocal     *obs.Histogram
	hJoin      *obs.Histogram
	sharedCtr  *obs.Counter
}

// Option configures a DAG.
type Option func(*DAG)

// WithObs wires hot-path observability: the DAG reuses the engine's
// local-search and join segment histograms and exposes the fan-out saving as
// the MQOSharedHitsCounterName counter.
func WithObs(c obs.Config) Option {
	return func(d *DAG) {
		c = c.Normalized()
		if !c.Enabled {
			return
		}
		d.obsEnabled = true
		d.clock = c.Clock
		d.hLocal = c.Registry.Segment(obs.SegLocalSearch)
		d.hJoin = c.Registry.Segment(obs.SegSJTreeJoin)
		d.sharedCtr = c.Registry.Counter(obs.MQOSharedHitsCounterName, "", "")
	}
}

// New constructs an empty DAG over the given dynamic graph.
func New(g *graph.Dynamic, opts ...Option) *DAG {
	d := &DAG{
		g:           g,
		nodes:       make(map[string]*node),
		seedsByType: make(map[string][]seedRef),
		atts:        make(map[string]*Attachment),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// SetGraph repoints the DAG at a rebuilt dynamic graph. The engine rebuilds
// its graph when a pre-ingest registration widens retention; the DAG holds no
// per-edge state of its own at that point, so repointing suffices.
func (d *DAG) SetGraph(g *graph.Dynamic) { d.g = g }

// NumNodes returns the number of live DAG nodes.
func (d *DAG) NumNodes() int { return len(d.nodes) }

// NumAttachments returns the number of attached queries.
func (d *DAG) NumAttachments() int { return len(d.atts) }

// LocalSearches returns the cumulative number of leaf local searches run.
func (d *DAG) LocalSearches() uint64 { return d.localSearches }

// SharedHits returns the cumulative fan-out saving: for every local search
// of a node referenced by k parents-or-consumers, k−1 redundant per-query
// searches were avoided.
func (d *DAG) SharedHits() uint64 { return d.sharedHits }

// ProcessEdge runs the per-edge incremental step for every attached query at
// once: one local search per distinct leaf primitive the edge can seed, with
// results inserted into the shared DAG and complete matches fanned out to
// each attachment's emit callback.
func (d *DAG) ProcessEdge(de *graph.Edge) {
	if len(d.atts) == 0 {
		return
	}
	d.processSeeds(d.seedsByType[de.Type], de)
	if de.Type != "" {
		d.processSeeds(d.seedsByType[""], de)
	}
}

func (d *DAG) processSeeds(seeds []seedRef, de *graph.Edge) {
	for i := range seeds {
		s := &seeds[i]
		if !s.qe.MatchesEdge(de) {
			continue
		}
		n := s.n
		n.searches++
		d.localSearches++
		if fan := n.refs(); fan > 1 {
			d.sharedHits += uint64(fan - 1)
			d.sharedCtr.Add(uint64(fan - 1))
		}
		if d.obsEnabled {
			t0 := d.clock.Now()
			d.prims = n.matcher.LocalSearchInto(d.prims[:0], d.g.Graph(), s.order, de)
			t1 := d.clock.Now()
			d.hLocal.Observe(t1 - t0)
			for _, pm := range d.prims {
				d.insert(n, pm)
			}
			d.hJoin.Observe(d.clock.Now() - t1)
		} else {
			d.prims = n.matcher.LocalSearchInto(d.prims[:0], d.g.Graph(), s.order, de)
			for _, pm := range d.prims {
				d.insert(n, pm)
			}
		}
	}
}

// searchNode runs the local searches of one leaf for one edge — the backfill
// path used when a freshly created leaf replays the retained window. No
// shared-hit accounting: the node is new, nothing was saved.
func (d *DAG) searchNode(n *node, de *graph.Edge) {
	for i := range n.seeds {
		s := &n.seeds[i]
		if !s.qe.MatchesEdge(de) {
			continue
		}
		n.searches++
		d.localSearches++
		d.prims = n.matcher.LocalSearchInto(d.prims[:0], d.g.Graph(), s.order, de)
		for _, pm := range d.prims {
			d.insert(n, pm)
		}
	}
}

// insert adds a canonical match of n's fragment and propagates it: dedup
// into the node's collection, remap into each parent's space, hash-join with
// the sibling partition (recursing upward), and deliver to each consumer.
// This is sjtree.Tree.Insert generalized from one parent to many.
func (d *DAG) insert(n *node, m *match.Match) {
	if !m.WithinWindow(n.window) {
		n.windowDrops++
		return
	}
	if !n.coll.Add(m) {
		return
	}
	for _, pl := range n.parents {
		p, l := pl.parent, pl.link
		pg := p.frag.Graph
		mp := m.Remap(pg.NumVertices(), pg.NumEdges(), l.vmap, l.emap)
		key := mp.Projection(l.cuts)
		l.part.Add(key, mp)
		for _, sm := range p.otherLink(l).part.Probe(key) {
			p.joinAttempts++
			joined := mp.Join(sm)
			if joined == nil {
				continue
			}
			p.joinHits++
			d.insert(p, joined)
		}
	}
	for _, c := range n.consumers {
		d.deliver(c.att, m, false)
	}
}

// deliver translates a canonical root match into one attachment's query
// space and emits it, preserving the private tree's acceptance order
// exactly: window check, completeness check, emitted-set dedup, then emit.
// A suppressed delivery (root backfill of a freshly attached query) records
// the match as emitted without invoking the callback, so state accumulated
// before the attachment never produces emissions the per-query path would
// not have produced.
func (d *DAG) deliver(att *Attachment, m *match.Match, suppress bool) {
	qm := m.Remap(att.q.NumVertices(), att.q.NumEdges(), att.rootVMap, att.rootEMap)
	if !qm.WithinWindow(att.window) {
		return
	}
	if !qm.Complete(att.q) {
		// A root fragment that does not cover the query indicates a plan
		// bug; drop rather than report a wrong result.
		return
	}
	if !att.emitted.Add(qm) {
		return
	}
	if suppress {
		att.preAttach++
		return
	}
	att.matches++
	if att.emit != nil {
		att.emit(qm)
	}
}

// Prune drops stored matches that can no longer contribute: per node, either
// matches whose span start has aged past the node's effective window (the
// widest window of any attachment reaching it), or — for nodes on unbounded
// paths — matches binding a data edge that has expired from the retention
// window. Both the node collection and every parent-link partition are
// swept with the same predicate, so the remapped views never outlive the
// canonical match. Returns the number of stored entries removed.
func (d *DAG) Prune(wm graph.Timestamp, expired map[graph.EdgeID]struct{}) int {
	removed := 0
	for _, sig := range d.order {
		n := d.nodes[sig]
		drop := dropPredicate(n.window, wm, expired)
		if drop == nil {
			continue
		}
		removed += n.coll.PruneWhere(drop)
		if n.left != nil {
			removed += n.left.part.PruneWhere(drop)
			removed += n.right.part.PruneWhere(drop)
		}
	}
	return removed
}

// dropPredicate builds the prune predicate for one node, or nil when there
// is nothing to check.
func dropPredicate(window time.Duration, wm graph.Timestamp, expired map[graph.EdgeID]struct{}) func(*match.Match) bool {
	if window > 0 {
		cutoff := wm - graph.Timestamp(window)
		return func(m *match.Match) bool {
			return m.HasSpan() && m.Span.Start < cutoff
		}
	}
	if len(expired) == 0 {
		return nil
	}
	return func(m *match.Match) bool {
		found := false
		m.ForEachEdge(func(_ query.EdgeID, de graph.EdgeID) bool {
			if _, ok := expired[de]; ok {
				found = true
				return false
			}
			return true
		})
		return found
	}
}
