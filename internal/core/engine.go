// Package core implements the StreamWorks continuous query engine: the
// component that ties the dynamic graph, the summarization layer, the query
// planner and the per-query SJ-Trees together (paper §4).
//
// Users register graph queries; the engine then consumes a stream of
// timestamped edges and, for every arriving edge, runs a local search for
// each registered query's leaf primitives that the edge can participate in,
// inserts the resulting primitive matches into the query's SJ-Tree and
// reports every complete match that emerges within the query's time window.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/replan"
	"github.com/streamworks/streamworks/internal/stats"
	"github.com/streamworks/streamworks/internal/stream"
)

// MatchEvent is one complete match reported by the engine.
type MatchEvent struct {
	// Query is the name of the registered query that matched.
	Query string
	// Match is the complete binding of the query graph in the data graph.
	Match *match.Match
	// DetectedAt is the stream watermark at the moment of detection; the
	// detection latency of an event is DetectedAt minus the event's last
	// edge timestamp (zero for in-order streams).
	DetectedAt graph.Timestamp
	// EmittedWallNS is the wall-clock nanosecond timestamp of emission,
	// stamped through the obs.Clock seam only when observability is enabled
	// (zero otherwise). Serving tiers subtract it from their own clock to
	// measure dispatch latency; it never influences matching.
	EmittedWallNS int64
	// ArrivedWallNS is the serving-tier arrival time of the edge whose
	// processing completed this match, copied from the StreamEdge envelope
	// when observability is enabled (zero otherwise, and zero for edges that
	// never crossed a serving tier). The flush point subtracts it to record
	// the match's full arrival-to-delivery journey.
	ArrivedWallNS int64
}

// String renders the event compactly.
func (e MatchEvent) String() string {
	return fmt.Sprintf("[%s] %s (detected at %d)", e.Query, e.Match, e.DetectedAt)
}

// MatchSink receives complete matches at the moment of emission, the push
// half of the engine API: front-ends register sinks once and the engine
// drives them, instead of every caller polling ProcessEdge's scratch-backed
// return slice. OnMatch is invoked synchronously on the goroutine driving
// the engine, so implementations must be fast and must not call back into
// the engine. The MatchEvent value is safe to retain.
type MatchSink interface {
	OnMatch(MatchEvent)
}

// MatchSinkFunc adapts a plain function to the MatchSink interface.
type MatchSinkFunc func(MatchEvent)

// OnMatch implements MatchSink.
func (f MatchSinkFunc) OnMatch(ev MatchEvent) { f(ev) }

// engineSink is one registered sink with its query filter.
type engineSink struct {
	id    int
	query string // "" subscribes to every query
	sink  MatchSink
}

// Config controls engine-wide behaviour.
type Config struct {
	// Retention is the width of the dynamic graph's sliding window. Zero
	// retains every edge; registrations with time windows extend it
	// automatically so no query can miss a match because data expired early.
	Retention time.Duration
	// Slack is the tolerated out-of-order arrival lag.
	Slack time.Duration
	// EnableSummaries turns on continuous statistics collection (totals,
	// type and triad distributions) used by the selective planner.
	EnableSummaries bool
	// TriadSampling is the 1-in-n sampling rate for triad statistics
	// (0 disables triads, 1 counts every edge). A counted edge costs a
	// small constant at any endpoint degree, so the rate sets only the
	// triad table's resolution. Only used when summaries are enabled.
	TriadSampling int
	// PruneInterval is the number of processed edges between partial-match
	// pruning sweeps. Zero uses the default of 1024.
	PruneInterval int
	// Replan tunes adaptive re-planning for registrations created with
	// WithAdaptive: how often selectivity drift is checked, the hysteresis
	// threshold, and the per-query swap cooldown. Zero fields take the
	// replan package defaults. Adaptive planning needs live statistics, so
	// it is inert when EnableSummaries is false.
	Replan replan.Config
	// Obs configures hot-path observability: per-segment latency
	// histograms, the stream-time detection-lag histogram and sampled edge
	// tracing. Disabled by default; when enabled the engine reads wall time
	// exclusively through the configured obs.Clock (never a concrete clock
	// — swvet's walltime pass enforces the seam).
	Obs obs.Config
	// SharedPlans switches registration onto the multi-query shared-plan
	// path: instead of one SJ-Tree per query, all registered queries fold
	// into a single evaluation DAG (internal/mqo) in which structurally
	// identical subpatterns are computed once per edge and fanned out to
	// every query containing them. Emission semantics are unchanged —
	// shared-DAG mode produces byte-identical canonical match sets to the
	// per-query mode for queries registered before ingestion begins.
	SharedPlans bool
}

// DefaultConfig returns the configuration used by New when nil is passed.
func DefaultConfig() Config {
	return Config{
		EnableSummaries: true,
		TriadSampling:   10,
		PruneInterval:   1024,
	}
}

// Engine is the continuous query processor. It is not safe for concurrent
// use; callers stream edges from a single goroutine (shard streams across
// engines for parallelism).
type Engine struct {
	cfg     Config
	dyn     *graph.Dynamic
	summary *stats.Summary
	planner *decompose.Planner
	// est is the live estimator behind the planner: plans scored through it
	// reflect whatever the summary has learned so far, which is what lets
	// the replan tick notice selectivity drift.
	est *stats.Estimator

	// replanCfg is the normalized adaptive-planning policy; adaptiveCount
	// tracks how many registrations opted in (the tick is free when zero);
	// sinceReplanCheck counts edges towards the next drift check, and
	// lastReplanTotal is the summary edge count at the previous check so
	// idle heartbeats (Advance with no new statistics) skip the planner.
	replanCfg        replan.Config
	adaptiveCount    int
	sinceReplanCheck int
	lastReplanTotal  uint64

	registrations map[string]*Registration
	order         []string // registration order, for deterministic iteration

	// dag is the shared evaluation DAG, non-nil only under
	// Config.SharedPlans; dagEvents is where Registration.emitShared appends
	// MatchEvents during a DAG ProcessEdge or plan-swap replay (the DAG
	// emits through per-attachment callbacks rather than returning slices).
	dag       *mqo.DAG
	dagEvents []MatchEvent

	// evScratch is the per-edge match-event buffer reused across
	// ProcessEdge calls; see the ProcessEdge doc for the aliasing contract.
	evScratch []MatchEvent
	// expiredPending collects the IDs of edges evicted from the sliding
	// window since the last prune sweep; the sweep drains it through each
	// registration's SJ-Tree so stored partial matches never outlive the
	// data edges they bind (the window-less-query leak the expiry callback
	// exists to plug).
	expiredPending map[graph.EdgeID]struct{}

	// sinks are the registered per-query match subscriptions, dispatched at
	// the emission point (Registration.processCandidates). Like the rest of
	// the engine they are driver-goroutine state: Subscribe and the returned
	// cancel functions must be called from the goroutine streaming edges.
	sinks      []engineSink
	nextSinkID int

	metrics Metrics
	obs     engineObs
}

// New constructs an engine. cfg may be nil to use DefaultConfig.
func New(cfg *Config) *Engine {
	c := DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	if c.PruneInterval <= 0 {
		c.PruneInterval = 1024
	}
	e := &Engine{
		cfg:            c,
		dyn:            graph.NewDynamic(c.Retention, graph.WithSlack(c.Slack)),
		registrations:  make(map[string]*Registration),
		expiredPending: make(map[graph.EdgeID]struct{}),
	}
	e.dyn.SetExpiryCallback(e.noteExpired)
	if c.EnableSummaries {
		e.summary = stats.NewSummary(stats.WithTriadSampling(c.TriadSampling))
	}
	e.est = stats.NewEstimator(e.summary)
	e.planner = decompose.NewPlanner(e.est)
	e.replanCfg = c.Replan.WithDefaults()
	e.obs = newEngineObs(c.Obs)
	if c.SharedPlans {
		e.dag = mqo.New(e.dyn, mqo.WithObs(c.Obs))
	}
	return e
}

// SharedPlans reports whether the engine runs the shared-plan DAG path.
func (e *Engine) SharedPlans() bool { return e.dag != nil }

// Graph exposes the engine's dynamic data graph (read-only use).
func (e *Engine) Graph() *graph.Dynamic { return e.dyn }

// Summary returns the engine's stream summary, or nil when summaries are
// disabled.
func (e *Engine) Summary() *stats.Summary { return e.summary }

// Registrations returns the names of all registered queries in registration
// order.
func (e *Engine) Registrations() []string {
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}

// Registration returns the named registration.
func (e *Engine) Registration(name string) (*Registration, bool) {
	r, ok := e.registrations[name]
	return r, ok
}

// Registration errors.
var (
	// ErrDuplicateQuery is returned when a query with the same name is
	// already registered.
	ErrDuplicateQuery = errors.New("core: query already registered")
	// ErrUnknownQuery is returned by Unregister for unknown names.
	ErrUnknownQuery = errors.New("core: unknown query")
	// ErrNilQuery is returned when RegisterQuery is called with nil.
	ErrNilQuery = errors.New("core: nil query")
	// ErrRetentionTooSmall is returned when a query is registered mid-stream
	// with a time window wider than the retention already in force. Widening
	// retention after edges have been ingested cannot recover the edges that
	// were already expired, so such a registration could silently miss
	// matches; callers must either register wide queries up front or
	// configure a sufficiently large Retention.
	ErrRetentionTooSmall = errors.New("core: retention window too small for query window")
)

// RegisterQuery registers a continuous query. The query is decomposed with
// the configured strategy (selective by default, using whatever summary
// statistics have been collected so far) and an SJ-Tree is instantiated for
// it. Matches are reported both from ProcessEdge return values and through
// the registration's callback, if any.
func (e *Engine) RegisterQuery(q *query.Graph, opts ...RegistrationOption) (*Registration, error) {
	if q == nil {
		return nil, ErrNilQuery
	}
	name := q.Name()
	if name == "" {
		name = fmt.Sprintf("query-%d", len(e.registrations)+1)
	}
	if _, dup := e.registrations[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateQuery, name)
	}
	reg, err := newRegistration(e, name, q, opts...)
	if err != nil {
		return nil, err
	}
	if err := e.extendRetention(q.Window()); err != nil {
		return nil, fmt.Errorf("registering %q: %w", name, err)
	}
	if e.dag != nil {
		// extendRetention may have rebuilt the dynamic graph (pre-ingest
		// only); point the DAG at the live instance before attaching.
		e.dag.SetGraph(e.dyn)
		att, err := e.dag.Attach(name, q, reg.plan, mqo.AttachOptions{Emit: reg.emitShared})
		if err != nil {
			return nil, fmt.Errorf("registering %q: %w", name, err)
		}
		reg.att = att
	}
	e.registrations[name] = reg
	e.order = append(e.order, name)
	if reg.adaptive {
		e.adaptiveCount++
	}
	return reg, nil
}

// UnregisterQuery removes a registered query and discards its partial state.
func (e *Engine) UnregisterQuery(name string) error {
	reg, ok := e.registrations[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	if reg.adaptive {
		e.adaptiveCount--
	}
	if e.dag != nil {
		if err := e.dag.Detach(name); err != nil {
			return err
		}
	}
	delete(e.registrations, name)
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	return nil
}

// extendRetention grows the dynamic graph's window so it is never smaller
// than the largest registered query window. A zero (unbounded) window always
// suffices. Growth is only possible before the first edge is ingested;
// afterwards edges outside the old window may already have expired, so a
// mid-stream registration needing more retention fails with
// ErrRetentionTooSmall rather than silently risking missed matches.
func (e *Engine) extendRetention(w time.Duration) error {
	if w <= 0 || e.dyn.Window() == 0 || w <= e.dyn.Window() {
		return nil
	}
	if e.dyn.AddedTotal() > 0 {
		return fmt.Errorf("%w: query window %s exceeds retention %s after %d edges",
			ErrRetentionTooSmall, w, e.dyn.Window(), e.dyn.AddedTotal())
	}
	e.dyn = graph.NewDynamic(w, graph.WithSlack(e.cfg.Slack), graph.WithExpiryCallback(e.noteExpired))
	return nil
}

// Subscribe registers a push subscription: sink receives every complete
// match of the query named by queryFilter ("" subscribes to all queries) as
// it is emitted, before ProcessEdge returns it. The filter may name a query
// that is not registered yet; matches flow once it is. The returned cancel
// function removes the subscription; both Subscribe and cancel must be
// called from the goroutine driving the engine.
func (e *Engine) Subscribe(queryFilter string, sink MatchSink) (cancel func()) {
	id := e.nextSinkID
	e.nextSinkID++
	e.sinks = append(e.sinks, engineSink{id: id, query: queryFilter, sink: sink})
	return func() {
		for i, s := range e.sinks {
			if s.id == id {
				e.sinks = append(e.sinks[:i], e.sinks[i+1:]...)
				return
			}
		}
	}
}

// dispatch pushes one emitted match to every subscribed sink whose filter
// admits it.
func (e *Engine) dispatch(ev MatchEvent) {
	for _, s := range e.sinks {
		if s.query == "" || s.query == ev.Query {
			s.sink.OnMatch(ev)
		}
	}
}

// noteExpired is the dynamic graph's expiry callback: it records the evicted
// edge for the next prune sweep, which forwards the batch to every
// registration's tree in one scan (Tree.PruneExpiredEdges) instead of
// scanning per expired edge.
func (e *Engine) noteExpired(de *graph.Edge) {
	e.expiredPending[de.ID] = struct{}{}
}

// ProcessEdge ingests one stream edge and returns the complete matches it
// produced across all registered queries. Out-of-order edges beyond the
// configured slack and duplicate edge IDs are counted and skipped rather
// than aborting the stream.
//
// The returned slice aliases an internal scratch buffer and is only valid
// until the next ProcessEdge call; callers that retain events across calls
// must copy the slice (the MatchEvent values themselves are safe to keep).
// swvet's scratchalias pass enforces that contract at every call site.
//
//swvet:scratch
func (e *Engine) ProcessEdge(se graph.StreamEdge) []MatchEvent {
	stored, err := e.dyn.Apply(se)
	if err != nil {
		e.metrics.EdgesDropped++
		return nil
	}
	e.metrics.EdgesProcessed++
	if e.summary != nil {
		e.summary.Observe(se, e.dyn.Graph())
	}
	if e.obs.enabled {
		e.obs.curArrival = se.ArrivedWallNS
	}

	// Sampled edge tracing: the gate is a nil check plus one modulo, and no
	// event is constructed unless this edge is sampled.
	var procStart int64
	traced := false
	if e.obs.enabled && e.obs.tracer.SampleEdge(uint64(stored.ID)) {
		traced = true
		procStart = e.obs.clock.Now()
	}

	events := e.evScratch[:0]
	if e.dag != nil {
		if e.obs.enabled {
			e.obs.curEdge = uint64(stored.ID)
		}
		// Shared path: one DAG pass covers every registration; emissions
		// arrive through Registration.emitShared, which appends to
		// e.dagEvents (pointed at the scratch slice for this call).
		e.dagEvents = events
		e.dag.ProcessEdge(stored)
		events = e.dagEvents
		e.dagEvents = nil
	} else {
		for _, name := range e.order {
			reg := e.registrations[name]
			events = reg.processEdge(stored, events)
		}
	}
	e.evScratch = events
	e.metrics.MatchesEmitted += uint64(len(events))

	if traced {
		now := e.obs.clock.Now()
		e.obs.tracer.Record(obs.TraceEvent{
			Stage:    obs.StageProcess,
			Shard:    e.obs.shard,
			EdgeID:   uint64(stored.ID),
			StreamTS: int64(stored.Timestamp),
			WallNS:   now,
			DurNS:    now - procStart,
		})
	}

	if e.metrics.EdgesProcessed%uint64(e.cfg.PruneInterval) == 0 {
		e.pruneAll()
	}
	if e.adaptiveCount > 0 {
		if e.sinceReplanCheck++; e.sinceReplanCheck >= e.replanCfg.CheckEvery {
			e.sinceReplanCheck = 0
			e.maybeReplanAll()
		}
	}
	return events
}

// ProcessBatch ingests a batch of edges (one time step) and returns the
// incremental matches produced by the batch, i.e. the paper's
// f(Gd, Gq, E(k+1)).
func (e *Engine) ProcessBatch(b stream.Batch) []MatchEvent {
	var events []MatchEvent
	for _, se := range b.Edges {
		events = append(events, e.ProcessEdge(se)...)
	}
	return events
}

// Run drains a stream source through the engine. fn, when non-nil, is
// invoked for every match event as it is produced. Run returns the total
// number of match events.
func (e *Engine) Run(src stream.Source, fn func(MatchEvent)) (int, error) {
	total := 0
	_, err := stream.Replay(src, func(se graph.StreamEdge) bool {
		for _, ev := range e.ProcessEdge(se) {
			total++
			if fn != nil {
				fn(ev)
			}
		}
		return true
	})
	return total, err
}

// Advance signals the passage of stream time to ts in the absence of edges:
// the dynamic graph's watermark moves forward (trailing ts by the configured
// slack, exactly as edge ingestion would), expiring out-of-window edges, and
// partial matches that can no longer complete are pruned. Sharded front-ends
// broadcast watermarks through this hook so that idle shards keep expiring
// and pruning at the same pace as the shards receiving edges.
func (e *Engine) Advance(ts graph.Timestamp) {
	before := e.dyn.Watermark()
	e.dyn.AdvanceTo(ts)
	if e.dyn.Watermark() != before {
		e.pruneAll()
		if e.adaptiveCount > 0 {
			// Stream time moved without edges: give drift detection a
			// chance too. maybeReplanAll short-circuits when the summary
			// has not changed, so idle-shard heartbeats stay cheap.
			e.maybeReplanAll()
		}
	}
}

// pruneAll removes partial matches that can no longer complete: for
// windowed queries, matches whose span start has aged past the window (this
// also covers every match referencing an expired edge, since retention is
// never narrower than the widest window); for window-less queries, matches
// referencing edges that have expired from the sliding window — without the
// expiry batch those partials would accumulate forever.
//
// It then sweeps the exactly-once emitted sets against the graph's expiry
// cutoff. After the prune no stored match binds an edge older than the
// cutoff, and no live edge is older either, so a remembered emission that
// starts before it can never be derived again. Unbounded retention keeps
// every entry.
func (e *Engine) pruneAll() {
	e.metrics.PruneRuns++
	wm := e.dyn.Watermark()
	if e.dag != nil {
		e.metrics.PartialsPruned += uint64(e.dag.Prune(wm, e.expiredPending))
	} else {
		for _, name := range e.order {
			reg := e.registrations[name]
			if w := reg.query.Window(); w > 0 {
				cutoff := wm - graph.Timestamp(w)
				e.metrics.PartialsPruned += uint64(reg.tree.Prune(cutoff))
			} else {
				e.metrics.PartialsPruned += uint64(reg.tree.PruneExpiredEdges(e.expiredPending))
			}
		}
	}
	clear(e.expiredPending)
	if w := e.dyn.Window(); w > 0 {
		e.sweepEmitted(wm - graph.Timestamp(w))
	}
}

// sweepEmitted forgets, in every registration's emitted set, the emissions
// whose span starts before cutoff.
func (e *Engine) sweepEmitted(cutoff graph.Timestamp) {
	for _, name := range e.order {
		reg := e.registrations[name]
		if reg.tree != nil {
			reg.tree.SweepEmitted(cutoff)
		} else {
			reg.att.Emitted().Sweep(cutoff)
		}
	}
}

// Metrics returns a snapshot of engine counters, including per-query detail.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.Registrations = uint64(len(e.registrations))
	m.LiveEdges = e.dyn.NumEdges()
	m.LiveVertices = e.dyn.NumVertices()
	m.ExpiredEdges = e.dyn.ExpiredTotal()
	if e.dag != nil {
		ds := e.dag.Stats()
		m.MQO = &ds
		m.PartialMatches = ds.PartialMatches
		m.LocalSearches = ds.LocalSearches
	}
	for _, name := range e.order {
		reg := e.registrations[name]
		qm := QueryMetrics{
			Name:           name,
			Strategy:       reg.plan.Strategy,
			Matches:        reg.matches,
			Adaptive:       reg.adaptive,
			PlanGeneration: reg.planGen,
			Replans:        reg.replans,
			PlanNodes:      reg.plan.NumNodes(),
			PlanDepth:      reg.plan.Depth(),
		}
		if reg.tree != nil {
			m.PartialMatches += reg.tree.PartialMatchCount()
			m.LocalSearches += reg.localSearches
			qm.PartialMatches = reg.tree.PartialMatchCount()
			qm.LocalSearches = reg.localSearches
			qm.EmittedTracked = reg.tree.EmittedTracked()
			qm.Nodes = reg.nodeMetrics()
		} else {
			// Shared mode: the per-query view of the DAG. LocalSearches
			// reports the query's coverage (a shared leaf's searches count
			// for every query viewing it); the DAG-level totals above report
			// actual cost, and the gap between the two is the sharing win.
			qm.PartialMatches = reg.att.PartialMatches()
			qm.LocalSearches = reg.att.LeafSearches()
			qm.EmittedTracked = reg.att.Emitted().Len()
		}
		m.EmittedTracked += qm.EmittedTracked
		if n := len(reg.audits); n > 0 {
			audit := reg.audits[n-1]
			qm.LastReplanAudit = &audit
		}
		m.Queries = append(m.Queries, qm)
	}
	return m
}
