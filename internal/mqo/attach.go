package mqo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/sjtree"
)

// Attachment is one query's view of the shared DAG: the root node its plan
// resolved to, the maps translating canonical root matches into the query's
// own pattern space, and the per-query emission state (exactly-once set,
// window, callback).
type Attachment struct {
	dag    *DAG
	name   string
	q      *query.Graph
	plan   *decompose.Plan
	window time.Duration

	root     *node
	rootVMap []query.VertexID
	rootEMap []query.EdgeID
	// nodes lists the distinct DAG nodes realizing this plan (a plan with
	// two isomorphic subtrees resolves both to one node); leaves is the
	// leaf subset, for per-query search accounting.
	nodes  []*node
	leaves []*node

	emitted *sjtree.EmittedSet
	emit    func(*match.Match)

	matches       uint64
	preAttach     uint64
	replayedEdges uint64
}

// Name returns the attachment's registration name.
func (a *Attachment) Name() string { return a.name }

// Plan returns the decomposition plan the attachment realizes.
func (a *Attachment) Plan() *decompose.Plan { return a.plan }

// Matches returns the number of complete matches emitted since attach.
func (a *Attachment) Matches() uint64 { return a.matches }

// PreAttachMatches returns how many complete matches predating the
// attachment were recorded-but-suppressed during root backfill.
func (a *Attachment) PreAttachMatches() uint64 { return a.preAttach }

// ReplayedEdges returns how many retained-window edges were replayed to
// backfill leaves this attachment created.
func (a *Attachment) ReplayedEdges() uint64 { return a.replayedEdges }

// Emitted exposes the attachment's exactly-once emission set: a plan swap
// moves it onto the replacement attachment (sjtree.Tree.InheritEmitted's
// shared-plan counterpart), and the engine sweeps it against the expiry
// cutoff after each prune.
func (a *Attachment) Emitted() *sjtree.EmittedSet { return a.emitted }

// LeafSearches sums the local searches of the attachment's leaf nodes. The
// counters are shared: a search seeded once for five queries counts once in
// each — the per-query number reports coverage, DAG.LocalSearches cost.
func (a *Attachment) LeafSearches() uint64 {
	var total uint64
	for _, n := range a.leaves {
		total += n.searches
	}
	return total
}

// PartialMatches sums the stored matches of the attachment's non-root
// nodes, the shared-mode analogue of Tree.PartialMatchCount (shared nodes
// count once per query viewing them).
func (a *Attachment) PartialMatches() int {
	total := 0
	for _, n := range a.nodes {
		if n != a.root {
			total += n.coll.Len()
		}
	}
	return total
}

// AttachOptions configures Attach.
type AttachOptions struct {
	// Emit receives every complete match in the query's own pattern space,
	// exactly once per distinct data-edge binding.
	Emit func(*match.Match)
	// InheritEmitted seeds the attachment's exactly-once set from a detached
	// predecessor, preserving emission identity across a plan swap.
	InheritEmitted *sjtree.EmittedSet
	// Replay marks the attachment as replacing a predecessor: complete
	// matches found during root backfill are emitted (the inherited set
	// silences the already-reported ones) instead of recorded-but-
	// suppressed, mirroring the per-query swap's replay semantics.
	Replay bool
}

// Attach folds a query's decomposition plan into the DAG. Plan subtrees
// whose canonical signature matches an existing node are shared as-is; new
// nodes are created with their state backfilled from the retained window
// (leaves by replaying live edges, joins by cross-joining their children's
// existing collections), so an attachment mid-stream starts from the same
// state it would have had if attached before the retained window began.
func (d *DAG) Attach(name string, q *query.Graph, plan *decompose.Plan, opt AttachOptions) (*Attachment, error) {
	if _, dup := d.atts[name]; dup {
		return nil, fmt.Errorf("mqo: query %q already attached", name)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("mqo: invalid plan for %q: %w", name, err)
	}
	att := &Attachment{
		dag:     d,
		name:    name,
		q:       q,
		plan:    plan,
		window:  q.Window(),
		emitted: opt.InheritEmitted,
		emit:    opt.Emit,
	}
	if att.emitted == nil {
		att.emitted = sjtree.NewEmittedSet()
	}
	root, rootFrag := d.build(att, plan.Query, plan.Root)
	att.root = root
	att.rootVMap = rootFrag.VertToQuery
	att.rootEMap = rootFrag.EdgeToQuery
	root.consumers = append(root.consumers, &consumer{att: att})

	d.atts[name] = att
	d.attOrder = append(d.attOrder, name)

	// Root backfill: complete matches already in the shared root collection
	// flow through the normal delivery path. On a fresh attach they predate
	// the query and are recorded-but-suppressed; on a replay (plan swap)
	// they are emitted and the inherited set drops the duplicates, so only
	// matches the old plan had not surfaced yet reach the callback.
	for _, m := range root.coll.Stored() {
		d.deliver(att, m, !opt.Replay)
	}
	return att, nil
}

// build resolves one plan node to a shared DAG node, creating and
// backfilling it when no structurally identical node exists. It returns the
// node together with THIS query's canonical fragment for the subpattern —
// the node's stored fragment maps into whichever query created it, so each
// attaching query carries its own maps; equal signatures guarantee the
// canonical coordinate space is the same.
func (d *DAG) build(att *Attachment, q *query.Graph, pn *decompose.Node) (*node, *decompose.Fragment) {
	frag := decompose.Canonicalize(q, pn.Edges, att.name)
	leaf := pn.Left == nil && pn.Right == nil
	var sig string
	var ln, rn *node
	var lf, rf *decompose.Fragment
	if leaf {
		sig = "L|" + frag.Sig
	} else {
		ln, lf = d.build(att, q, pn.Left)
		rn, rf = d.build(att, q, pn.Right)
		sig = joinSig(frag, ln.sig, rn.sig, lf, rf)
	}

	if n, ok := d.nodes[sig]; ok {
		d.widen(n, att.window)
		att.addNode(n, leaf)
		return n, frag
	}

	n := &node{
		sig:     sig,
		frag:    frag,
		matcher: isomorphism.New(frag.Graph),
		coll:    sjtree.NewCollection(),
		window:  att.window,
	}
	d.nodes[sig] = n
	d.order = append(d.order, sig)
	att.addNode(n, leaf)

	if leaf {
		d.addSeeds(n)
		// Backfill: replay the retained window through the new leaf so its
		// collection holds every primitive match a pre-existing leaf would.
		// Registration before ingest replays nothing.
		d.g.ForEachLiveEdge(func(de *graph.Edge) bool {
			att.replayedEdges++
			d.searchNode(n, de)
			return true
		})
		return n, frag
	}

	// Cut vertices in parent canonical space, sorted so both links project
	// onto the identical ordered list regardless of which query's plan
	// supplied the (query-space) cut.
	cuts := make([]query.VertexID, len(pn.CutVertices))
	for i, qv := range pn.CutVertices {
		cuts[i] = frag.VertFromQuery[qv]
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	mkLink := func(child *node, cf *decompose.Fragment) *childLink {
		vmap := make([]query.VertexID, len(cf.VertToQuery))
		for ci, qv := range cf.VertToQuery {
			vmap[ci] = frag.VertFromQuery[qv]
		}
		emap := make([]query.EdgeID, len(cf.EdgeToQuery))
		for ci, qe := range cf.EdgeToQuery {
			emap[ci] = frag.EdgeFromQuery[qe]
		}
		l := &childLink{child: child, vmap: vmap, emap: emap, cuts: cuts, part: sjtree.NewPartition()}
		child.parents = append(child.parents, &parentLink{parent: n, link: l})
		return l
	}
	n.left = mkLink(ln, lf)
	n.right = mkLink(rn, rf)

	// Join backfill: populate the left partition silently, then stream the
	// right child's collection through the normal add-and-probe step so
	// every (left, right) pair is joined exactly once. Joins insert into n,
	// which has no parents or consumers yet — results land in n.coll, ready
	// for the next level up.
	nv, ne := frag.Graph.NumVertices(), frag.Graph.NumEdges()
	for _, m := range ln.coll.Stored() {
		mp := m.Remap(nv, ne, n.left.vmap, n.left.emap)
		n.left.part.Add(mp.Projection(cuts), mp)
	}
	for _, m := range rn.coll.Stored() {
		mp := m.Remap(nv, ne, n.right.vmap, n.right.emap)
		key := mp.Projection(cuts)
		n.right.part.Add(key, mp)
		for _, sm := range n.left.part.Probe(key) {
			n.joinAttempts++
			joined := mp.Join(sm)
			if joined == nil {
				continue
			}
			n.joinHits++
			d.insert(n, joined)
		}
	}
	return n, frag
}

// joinSig composes an internal node's sharing key: the canonical fragment
// signature alone does not pin how the fragment splits into children, so the
// key also embeds both child signatures and the provenance map — for every
// parent canonical edge, which side it comes from and its canonical index
// there. Equal keys therefore guarantee isomorphic fragments with aligned
// children and cut partitions.
func joinSig(frag *decompose.Fragment, lsig, rsig string, lf, rf *decompose.Fragment) string {
	var prov strings.Builder
	for i, qe := range frag.EdgeToQuery {
		if i > 0 {
			prov.WriteByte(',')
		}
		if ce, ok := lf.EdgeFromQuery[qe]; ok {
			prov.WriteByte('L')
			prov.WriteString(strconv.Itoa(int(ce)))
		} else {
			prov.WriteByte('R')
			prov.WriteString(strconv.Itoa(int(rf.EdgeFromQuery[qe])))
		}
	}
	return "J|" + frag.Sig + "|{" + lsig + "}|{" + rsig + "}|" + prov.String()
}

// addNode records a node in the attachment's distinct-node lists.
func (a *Attachment) addNode(n *node, leaf bool) {
	for _, have := range a.nodes {
		if have == n {
			return
		}
	}
	a.nodes = append(a.nodes, n)
	if leaf {
		a.leaves = append(a.leaves, n)
	}
}

// addSeeds registers a new leaf's local-search seeds, one per fragment edge,
// with precomputed connected orders (hot-path work hoisted to attach time,
// exactly like core's rebuildCandidates).
func (d *DAG) addSeeds(n *node) {
	fg := n.frag.Graph
	edges := fg.EdgeIDs()
	for _, fe := range edges {
		order := n.matcher.ConnectedOrder(edges, fe)
		if order == nil {
			// Disconnected primitives are rejected by plan validation; skip
			// defensively rather than register a dead seed.
			continue
		}
		e := fg.Edge(fe)
		s := seedRef{n: n, qe: e, order: order}
		n.seeds = append(n.seeds, s)
		d.seedsByType[e.Type] = append(d.seedsByType[e.Type], s)
	}
}

// removeSeeds drops a collected leaf's seeds from the per-type index.
func (d *DAG) removeSeeds(n *node) {
	//swvet:unordered each type bucket is filtered independently; relative seed order within a bucket is preserved
	for t, seeds := range d.seedsByType {
		kept := seeds[:0]
		for _, s := range seeds {
			if s.n != n {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(d.seedsByType, t)
		} else {
			d.seedsByType[t] = kept
		}
	}
}

// Detach removes a query from the DAG. Only nodes whose reference count
// drops to zero are collected — anything still referenced by another query's
// plan (or as a subtree of one) survives with its state intact.
func (d *DAG) Detach(name string) error {
	att, ok := d.atts[name]
	if !ok {
		return fmt.Errorf("mqo: query %q not attached", name)
	}
	d.detachConsumer(att)
	d.gc(att.root)
	d.recomputeWindows()
	return nil
}

// Swap replaces an attachment's plan in place: the replacement is attached
// while the old plan's nodes are still live — so subtrees common to both
// plans (and anything shared with other queries) keep their state across the
// swap — inheriting the exactly-once emission set, with root backfill in
// replay mode so matches the old plan had not yet surfaced are emitted. Only
// after the new attachment is in place are the old plan's now-unreferenced
// nodes collected. This is the shared-plan counterpart of the per-query
// engine's hot plan swap.
func (d *DAG) Swap(name string, plan *decompose.Plan, emit func(*match.Match)) (*Attachment, error) {
	old, ok := d.atts[name]
	if !ok {
		return nil, fmt.Errorf("mqo: query %q not attached", name)
	}
	d.detachConsumer(old)
	att, err := d.Attach(name, old.q, plan, AttachOptions{
		Emit:           emit,
		InheritEmitted: old.emitted,
		Replay:         true,
	})
	if err != nil {
		// Roll the old attachment back in so the DAG stays consistent.
		old.root.consumers = append(old.root.consumers, &consumer{att: old})
		d.atts[name] = old
		d.attOrder = append(d.attOrder, name)
		return nil, err
	}
	d.gc(old.root)
	d.recomputeWindows()
	return att, nil
}

// detachConsumer unhooks the attachment without collecting nodes; the caller
// runs gc (and, for a plan swap, a replacement Attach first, so shared nodes
// stay warm across the swap).
func (d *DAG) detachConsumer(att *Attachment) {
	root := att.root
	for i, c := range root.consumers {
		if c.att == att {
			root.consumers = append(root.consumers[:i], root.consumers[i+1:]...)
			break
		}
	}
	delete(d.atts, att.name)
	for i, n := range d.attOrder {
		if n == att.name {
			d.attOrder = append(d.attOrder[:i], d.attOrder[i+1:]...)
			break
		}
	}
}

// gc collects n if its reference count reached zero, cascading to children
// whose last parent link it held.
func (d *DAG) gc(n *node) {
	if n.refs() > 0 {
		return
	}
	delete(d.nodes, n.sig)
	for i, sig := range d.order {
		if sig == n.sig {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	if n.left == nil {
		d.removeSeeds(n)
		return
	}
	for _, l := range []*childLink{n.left, n.right} {
		child := l.child
		for i, pl := range child.parents {
			if pl.parent == n && pl.link == l {
				child.parents = append(child.parents[:i], child.parents[i+1:]...)
				break
			}
		}
		d.gc(child)
	}
}

// widen relaxes a node's effective window to admit an attachment with
// requirement w, cascading downward (every node below must retain at least
// what its ancestors need). Zero means unbounded and absorbs everything.
func (d *DAG) widen(n *node, w time.Duration) {
	nw := combineWindow(n.window, w)
	if nw == n.window {
		return
	}
	n.window = nw
	if n.left != nil {
		d.widen(n.left.child, nw)
		d.widen(n.right.child, nw)
	}
}

// recomputeWindows rebuilds every node's effective window from scratch —
// required after a detach, which may narrow windows (widen only relaxes).
func (d *DAG) recomputeWindows() {
	for _, sig := range d.order {
		d.nodes[sig].window = -1
	}
	for _, name := range d.attOrder {
		att := d.atts[name]
		d.widen(att.root, att.window)
	}
}

// combineWindow merges two window requirements: -1 is "none yet", 0 is
// unbounded, otherwise the wider one wins.
func combineWindow(cur, w time.Duration) time.Duration {
	if cur < 0 {
		return w
	}
	if cur == 0 || w == 0 {
		return 0
	}
	if w > cur {
		return w
	}
	return cur
}
