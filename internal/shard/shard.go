// Package shard parallelizes the StreamWorks continuous query engine across
// hash partitions of the vertex space, the scale-out layer the single-threaded
// core.Engine explicitly defers to ("shard streams across engines for
// parallelism").
//
// A ShardedEngine owns N independent core.Engine workers, each with its own
// goroutine and input mailbox. Incoming stream edges are hash-partitioned by
// endpoint vertex: an edge is delivered to the shard owning its source and the
// shard owning its target (one delivery when both endpoints hash to the same
// shard), so every shard holds the complete neighborhood of each vertex it
// owns. Query registrations are replicated to every shard; for a query with a
// hub vertex — a pattern vertex incident to every pattern edge — each match is
// fully contained in the neighborhood of the data vertex bound to the hub, so
// endpoint routing alone guarantees the shard owning that vertex discovers it.
// Queries without a hub vertex (e.g. the paper's Fig. 2 article/keyword/
// location pattern) are handled by broadcasting edges of the types they
// constrain to every shard, trading redundant work for correctness; since
// that only helps from registration onwards, hub-free queries must be
// registered before streaming begins (ErrBroadcastRequired otherwise).
//
// Because routing replicates edges, the same complete match can surface on
// more than one shard. All shard outputs are funneled onto one merge channel
// and deduplicated by canonical match key (query name plus the sorted
// pattern-edge → data-edge binding), so replication never double-reports.
// Deduplicated matches are pushed to per-query subscriptions (Subscribe), the
// primary consumption surface; Events remains as a single-channel adapter for
// callers that prefer pulling from a channel. Stream time is coordinated by
// broadcasting watermark advances to shards that did not receive an edge,
// keeping window expiry and SJ-tree pruning moving on idle partitions.
//
// Sources feeding a ShardedEngine must populate endpoint metadata
// (types/attributes) on every stream edge, not only on a vertex's first
// appearance: shards see disjoint subsets of the stream, so "first
// appearance" is a per-shard notion. All generators in internal/gen do this.
//
// Adaptive re-planning (core.WithAdaptive, replicated like every other
// registration option) runs independently on each shard: a shard re-plans
// against its own partition's statistics on its own worker goroutine, so no
// cross-shard coordination or stop-the-world pause is needed. The merged
// match set stays canonical through two dedup layers — each shard's engine
// deduplicates its own emissions across swap boundaries (the new tree
// inherits the emitted-set), and the merger deduplicates identical matches
// across shards exactly as it does for replicated edges. Metrics report the
// maximum plan generation and the summed replan count across shards.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stream"
)

// Config controls the sharded front-end.
type Config struct {
	// Shards is the number of engine workers. Values below 1 are treated
	// as 1.
	Shards int
	// Engine is the configuration applied to every per-shard core.Engine.
	Engine core.Config
	// Buffer is the per-shard mailbox depth in messages (default 1024).
	Buffer int
	// AdvanceEvery is the granularity of watermark broadcasts: shards that
	// did not receive an edge are sent an explicit time advance whenever the
	// maximum observed timestamp has moved at least this far since the last
	// broadcast. Zero picks a default (an eighth of the retention window, or
	// one second when retention is unbounded); negative disables broadcasts.
	// Broadcast latency only delays expiry and pruning on idle shards — the
	// match set is unaffected because match admission checks the temporal
	// span directly.
	AdvanceEvery time.Duration
}

// DefaultConfig returns a four-way sharding of core.DefaultConfig engines.
func DefaultConfig() Config {
	return Config{Shards: 4, Engine: core.DefaultConfig(), Buffer: 1024}
}

// ShardedEngine drives N core.Engine shards behind the same
// register/process/metrics surface as a single engine. Control methods
// (RegisterQuery, UnregisterQuery, Process, Advance, Metrics, Start, Close)
// must be called from one goroutine — the stream driver — while Subscribe,
// Events consumption and Subscription.Close are safe from any goroutine; Run
// wires both sides together.
type ShardedEngine struct {
	cfg     Config
	workers []*worker
	router  *router
	dedup   *dedup

	running    bool
	closed     bool            // Close was called; the engine is permanently stopped
	out        chan shardEvent // workers → merger (events + progress marks)
	mergerDone chan struct{}

	// subMu guards the push-subscription registry and the lazy Events
	// channel; it is taken briefly by Subscribe/unsubscribe and by the
	// merger per delivered event.
	subMu   sync.Mutex
	subs    []*Subscription
	subSeq  int
	drained bool                 // merger has exited (or the engine closed unstarted)
	events  chan core.MatchEvent // lazy compatibility adapter, see Events

	seenTS        bool
	maxTS         graph.Timestamp
	lastBroadcast graph.Timestamp
	edgesRouted   uint64
	advanceEvery  time.Duration
	// retention is the effective per-shard retention: the configured value,
	// widened by pre-ingest registrations exactly as core.extendRetention
	// widens it on each shard. Zero means unbounded.
	retention time.Duration

	// Observability: each worker engine carries a private registry (derived
	// via obs.Config.PerWorker, written only by its goroutine); obsReg is
	// the front-end's own registry for the merger-side dispatch segment.
	// ObsSnapshot folds all of them. All nil when disabled.
	obsReg      *obs.Registry
	obsClock    obs.Clock
	obsDispatch *obs.Histogram
}

// Subscription is one per-query push subscription on a ShardedEngine. The
// registered sink receives every deduplicated match admitted for its query
// (all queries when the filter is empty), invoked on the merger goroutine:
// sinks must not block, or they stall merging and eventually ingestion.
// Done is closed when no further matches can arrive — the engine closed and
// drained, or the subscription was closed.
type Subscription struct {
	s     *ShardedEngine
	id    int
	query string
	sink  core.MatchSink
	done  chan struct{}
	once  sync.Once
}

// Done reports delivery end: closed after the final OnMatch call.
func (sub *Subscription) Done() <-chan struct{} { return sub.done }

// Close cancels the subscription. Matches already being dispatched may still
// be delivered concurrently with Close; after Done is closed none are. Safe
// to call from any goroutine, more than once.
func (sub *Subscription) Close() { sub.s.unsubscribe(sub) }

func (sub *Subscription) finish() {
	sub.once.Do(func() { close(sub.done) })
}

// Subscribe registers a push subscription for one query (queryFilter names
// it) or all queries (queryFilter ""). It may be called from any goroutine, before
// or after Start; matches emitted before Subscribe returns are not
// redelivered. Subscribing on a closed (or drained) engine returns a
// subscription whose Done is already closed.
func (s *ShardedEngine) Subscribe(queryFilter string, sink core.MatchSink) *Subscription {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	s.subSeq++
	sub := &Subscription{s: s, id: s.subSeq, query: queryFilter, sink: sink, done: make(chan struct{})}
	if s.drained {
		sub.finish()
		return sub
	}
	subs := make([]*Subscription, 0, len(s.subs)+1)
	subs = append(subs, s.subs...)
	s.subs = append(subs, sub)
	return sub
}

// unsubscribe removes sub from the registry and marks it finished.
func (s *ShardedEngine) unsubscribe(sub *Subscription) {
	s.subMu.Lock()
	for i, o := range s.subs {
		if o.id == sub.id {
			subs := make([]*Subscription, 0, len(s.subs)-1)
			subs = append(subs, s.subs[:i]...)
			s.subs = append(subs, s.subs[i+1:]...)
			break
		}
	}
	s.subMu.Unlock()
	sub.finish()
}

// finishSubscriptions marks the subscription registry drained: every live
// subscription's Done closes and the Events adapter (if materialized) is
// closed. Called by the merger on exit, and by Close on an engine that was
// never started.
func (s *ShardedEngine) finishSubscriptions() {
	s.subMu.Lock()
	s.drained = true
	subs := s.subs
	s.subs = nil
	events := s.events
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.finish()
	}
	if events != nil {
		close(events)
	}
}

// New constructs a stopped ShardedEngine. cfg may be nil for DefaultConfig.
func New(cfg *Config) *ShardedEngine {
	c := DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	adv := c.AdvanceEvery
	if adv == 0 {
		if c.Engine.Retention > 0 {
			adv = c.Engine.Retention / 8
		} else {
			adv = time.Second
		}
	}
	s := &ShardedEngine{
		cfg:          c,
		router:       newRouter(c.Shards),
		dedup:        newDedup(c.Engine.Retention, c.Engine.Slack),
		advanceEvery: adv,
		retention:    c.Engine.Retention,
	}
	// Normalize the obs config once so the clock and tracer are shared,
	// then derive a private registry per worker; the front-end keeps its
	// own registry for the merger-side dispatch segment.
	obsCfg := c.Engine.Obs.Normalized()
	if obsCfg.Enabled {
		s.obsReg = obs.NewRegistry()
		s.obsClock = obsCfg.Clock
		s.obsDispatch = s.obsReg.Segment(obs.SegDispatch)
	}
	for i := 0; i < c.Shards; i++ {
		engCfg := c.Engine
		engCfg.Obs = obsCfg.PerWorker(i)
		w := &worker{id: i, eng: core.New(&engCfg)}
		if obsCfg.Enabled {
			w.obsClock = engCfg.Obs.Clock
			w.obsMailbox = engCfg.Obs.Registry.Segment(obs.SegShardMailbox)
			w.obsTracer = engCfg.Obs.Tracer
		}
		s.workers = append(s.workers, w)
	}
	return s
}

// ObsEnabled reports whether the engine was built with observability on.
func (s *ShardedEngine) ObsEnabled() bool { return s.obsReg != nil }

// ObsSnapshot folds the front-end registry and every worker's private
// registry into one logical snapshot — the observability analogue of
// Metrics' counter aggregation. Registries are written atomically, so unlike
// the control methods this is safe from any goroutine.
func (s *ShardedEngine) ObsSnapshot() obs.Snapshot {
	if s.obsReg == nil {
		return obs.Snapshot{}
	}
	snaps := make([]obs.Snapshot, 0, len(s.workers)+1)
	snaps = append(snaps, s.obsReg.Snapshot())
	for _, w := range s.workers {
		if r := w.eng.ObsRegistry(); r != nil {
			snaps = append(snaps, r.Snapshot())
		}
	}
	return obs.Merge(snaps...)
}

// Shards returns the number of shard workers.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// Registration errors specific to the sharded front-end.
var (
	// ErrNotRunning is returned by Process when Start has not been called.
	ErrNotRunning = errors.New("shard: engine not running (call Start)")
	// ErrClosed is returned by Process, RegisterQuery and UnregisterQuery
	// after Close: the mailboxes are gone, so accepting the call would mean
	// either silently dropping work or sending on a stopped mailbox. Close
	// is permanent (and idempotent); build a new engine to stream again.
	ErrClosed = errors.New("shard: engine closed")
	// ErrBroadcastRequired is returned when a query without a hub vertex is
	// registered after edges have been routed: its edge types were
	// endpoint-partitioned rather than broadcast up to that point, so shards
	// lack the history the query needs and matches spanning pre-registration
	// edges would be silently missed. Register hub-free queries before
	// streaming.
	ErrBroadcastRequired = errors.New("shard: hub-free query must be registered before edges are streamed")
)

// RegisterQuery replicates a continuous query registration onto every shard.
// It can be called before Start or mid-stream; mid-stream the registration
// takes effect on each shard after the edges already queued in its mailbox,
// so matches completing exactly at the registration instant may differ from a
// single-engine run. Cross-shard consistency is checked up front: a
// mid-stream query needing more retention than is in force fails with
// ErrRetentionTooSmall before touching any shard (matching core.Engine
// semantics), and a mid-stream hub-free query fails with
// ErrBroadcastRequired since its edge types were not being broadcast while
// earlier edges were partitioned. Per-shard failures (duplicate name, plan
// errors) roll back the shards that had accepted. Note that a WithCallback
// option fires per shard before deduplication; use Events or the Run
// callback for deduplicated matches.
func (s *ShardedEngine) RegisterQuery(q *query.Graph, opts ...core.RegistrationOption) error {
	if q == nil {
		return core.ErrNilQuery
	}
	if s.closed {
		return ErrClosed
	}
	if s.edgesRouted > 0 && len(s.workers) > 1 && !hasHubVertex(q) {
		return fmt.Errorf("%w: %q", ErrBroadcastRequired, q.Name())
	}
	widens := q.Window() > 0 && s.retention != 0 && q.Window() > s.retention
	if widens && s.edgesRouted > 0 {
		return fmt.Errorf("shard: registering %q: %w: query window %s exceeds retention %s mid-stream",
			q.Name(), core.ErrRetentionTooSmall, q.Window(), s.retention)
	}
	done := make([]string, 0, len(s.workers))
	var regErr error
	for _, w := range s.workers {
		name, err := w.register(s.running, q, opts)
		if err != nil {
			regErr = fmt.Errorf("shard %d: %w", w.id, err)
			break
		}
		done = append(done, name)
	}
	if regErr != nil {
		for i, name := range done {
			// Roll back the shards that accepted the registration.
			_ = s.workers[i].unregister(s.running, name)
		}
		return regErr
	}
	if widens {
		s.retention = q.Window()
	}
	s.router.add(q)
	s.dedup.noteWindow(q.Window())
	return nil
}

// UnregisterQuery removes a registration from every shard. Partial matches
// held for the query are dropped with it; in-flight duplicates already queued
// on the merge channel remain deduplicated.
func (s *ShardedEngine) UnregisterQuery(name string) error {
	if s.closed {
		return ErrClosed
	}
	var firstErr error
	for _, w := range s.workers {
		if err := w.unregister(s.running, name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", w.id, err)
		}
	}
	if firstErr == nil {
		s.router.remove(name)
	}
	return firstErr
}

// Start spawns the shard workers and the deduplicating merger. It is a no-op
// when already running or after Close.
func (s *ShardedEngine) Start() {
	if s.running || s.closed {
		return
	}
	s.out = make(chan shardEvent, 64*len(s.workers))
	s.mergerDone = make(chan struct{})
	for _, w := range s.workers {
		w.start(s.cfg.Buffer, s.out)
	}
	go s.merge()
	s.running = true
}

// merge funnels all shard outputs into the deduplicated push subscriptions
// (and the Events adapter when materialized). It exits when Close closes the
// merge channel after all workers have drained, then finishes every
// subscription. Progress marks from the shards drive dedup-key eviction: the
// minimum observed shard watermark bounds, via channel FIFO order, which
// duplicates can still be in flight.
func (s *ShardedEngine) merge() {
	defer close(s.mergerDone)
	defer s.finishSubscriptions()
	marks := make([]graph.Timestamp, len(s.workers))
	marked := make([]bool, len(s.workers))
	for se := range s.out {
		if se.flush != nil {
			close(se.flush)
			continue
		}
		if se.mark {
			if se.ts > marks[se.id] || !marked[se.id] {
				marks[se.id], marked[se.id] = se.ts, true
			}
			if min, ok := minMark(marks, marked); ok {
				s.dedup.maybeSweep(min)
			}
			continue
		}
		if s.dedup.admit(se.ev) {
			s.deliver(se.ev)
		}
	}
}

// deliver pushes one admitted match to every matching subscription and to
// the Events adapter. The registry is copy-on-write: the snapshot is taken
// under subMu, the sink calls happen outside it, so Subscribe never blocks
// behind a slow sink. A subscription closed concurrently with delivery may
// receive this final event.
func (s *ShardedEngine) deliver(ev core.MatchEvent) {
	if s.obsDispatch != nil && ev.EmittedWallNS != 0 {
		// Dispatch latency: core emission → deduplicated delivery. Covers
		// the merge channel plus fan-out, the two hops a match takes after
		// the SJ-tree surfaces it.
		s.obsDispatch.Observe(s.obsClock.Now() - ev.EmittedWallNS)
	}
	s.subMu.Lock()
	subs := s.subs
	events := s.events
	s.subMu.Unlock()
	for _, sub := range subs {
		if sub.query == "" || sub.query == ev.Query {
			sub.sink.OnMatch(ev)
		}
	}
	if events != nil {
		events <- ev
	}
}

// minMark returns the minimum shard watermark once every shard has reported
// at least one progress mark.
func minMark(marks []graph.Timestamp, marked []bool) (graph.Timestamp, bool) {
	min := graph.Timestamp(0)
	for i, ts := range marks {
		if !marked[i] {
			return 0, false
		}
		if i == 0 || ts < min {
			min = ts
		}
	}
	return min, true
}

// Events returns the deduplicated match stream as a channel — the
// compatibility adapter over the push-subscription surface. The channel is
// materialized on first call and receives matches admitted from then on
// (subscribe before processing edges to see everything); it is closed once
// the engine closes and drains. Consumers must drain it or ingestion
// eventually blocks — push subscriptions (Subscribe) do not have that
// failure mode and are the preferred surface.
func (s *ShardedEngine) Events() <-chan core.MatchEvent {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.events == nil {
		s.events = make(chan core.MatchEvent, 256)
		if s.drained {
			close(s.events)
		}
	}
	return s.events
}

// Process routes one stream edge to the shards that need it and broadcasts a
// watermark advance to the others when stream time has moved far enough.
// Edges must be supplied in non-decreasing timestamp order up to the
// configured slack, as with a single engine. It returns ErrNotRunning when
// called before Start and ErrClosed after Close.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	return s.ProcessContext(context.Background(), se)
}

// ProcessContext is Process with a cancellation bound on the blocking
// mailbox hand-off: when the shards cannot accept the edge before ctx is
// done, it returns the context error. Cancellation can interrupt a
// multi-shard delivery part-way; the edge may then have reached a subset of
// its shards, exactly as if the stream had been cut at that point.
func (s *ShardedEngine) ProcessContext(ctx context.Context, se graph.StreamEdge) error {
	if s.closed {
		return ErrClosed
	}
	if !s.running {
		return ErrNotRunning
	}
	dests := s.router.route(se)
	for i, d := range dests {
		if err := s.workers[d].enqueueEdge(ctx, se); err != nil {
			if i > 0 {
				// At least one shard already consumed the edge under
				// endpoint-partition routing: the stream is no longer
				// pristine, so the hub-free registration guard
				// (edgesRouted > 0) must still engage.
				s.edgesRouted++
			}
			return err
		}
	}
	s.edgesRouted++
	ts := se.Edge.Timestamp
	if !s.seenTS || ts > s.maxTS {
		s.maxTS = ts
		if !s.seenTS {
			s.seenTS = true
			s.lastBroadcast = ts
		}
	}
	if len(dests) == len(s.workers) {
		// A broadcast edge carries stream time to every shard by itself.
		s.lastBroadcast = s.maxTS
	} else if s.advanceEvery >= 0 && s.maxTS.Sub(s.lastBroadcast) >= s.advanceEvery {
		for _, w := range s.workers {
			if w.id != dests[0] && (len(dests) < 2 || w.id != dests[1]) {
				w.enqueueAdvance(s.maxTS)
			}
		}
		s.lastBroadcast = s.maxTS
	}
	return nil
}

// Advance broadcasts an explicit stream-time signal to every shard, exactly
// like Dynamic.AdvanceTo on a single engine (the watermark trails ts by the
// configured slack). It always reaches every shard — even when ts does not
// exceed the maximum routed timestamp — because edge-time broadcasts are
// throttled by AdvanceEvery and individual shards may lag well behind it;
// per-shard watermarks are monotone, so a stale signal is harmless.
func (s *ShardedEngine) Advance(ts graph.Timestamp) {
	if s.closed {
		return
	}
	if !s.seenTS || ts > s.maxTS {
		s.maxTS, s.seenTS = ts, true
	}
	if ts > s.lastBroadcast {
		s.lastBroadcast = ts
	}
	for _, w := range s.workers {
		if s.running {
			w.enqueueAdvance(ts)
		} else {
			w.eng.Advance(ts)
		}
	}
}

// Flush is a full-pipeline barrier: it returns only after every edge,
// advance and control message enqueued before the call has been processed
// by its shard AND every match those messages produced has been delivered
// through the merger to subscriptions. Recovery uses it to know that
// replaying the log tail has surfaced every re-derivable match before it
// compares them against the checkpointed emitted-set. Like Process, Flush
// must not race with Close.
//
// Ordering argument: each worker's flush acknowledgment happens after its
// earlier merge-channel sends completed (same goroutine), and this
// goroutine's sentinel send happens after every acknowledgment was
// received, so channel FIFO delivers the sentinel to the merger after all
// of those events; the merger closes the sentinel only when it reaches it.
func (s *ShardedEngine) Flush() error {
	if s.closed {
		return ErrClosed
	}
	if !s.running {
		return ErrNotRunning
	}
	for _, w := range s.workers {
		w.flush()
	}
	done := make(chan struct{})
	s.out <- shardEvent{flush: done}
	<-done
	return nil
}

// Close flushes the mailboxes, stops the workers and the merger, finishes
// every subscription (Done closes after the final delivery) and closes the
// Events adapter. Close is idempotent and permanent: a closed engine cannot
// be restarted, Process returns ErrClosed, and a second Close returns
// immediately.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.running {
		// Never started: there is no merger to finish the subscriptions.
		s.finishSubscriptions()
		return
	}
	for _, w := range s.workers {
		w.stop()
	}
	for _, w := range s.workers {
		w.wait()
	}
	close(s.out)
	<-s.mergerDone
	s.running = false
}

// Run streams src through the sharded engine: it starts the workers, routes
// every edge, and invokes fn (when non-nil) for each deduplicated match
// event via a push subscription. It returns the number of deduplicated
// matches. The engine is closed when the source is exhausted.
func (s *ShardedEngine) Run(src stream.Source, fn func(core.MatchEvent)) (int, error) {
	s.Start()
	total := 0
	sub := s.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
		total++
		if fn != nil {
			fn(ev)
		}
	}))
	defer sub.Close()
	var procErr error
	_, err := stream.Replay(src, func(se graph.StreamEdge) bool {
		procErr = s.Process(se)
		return procErr == nil
	})
	s.Close()
	<-sub.Done()
	if procErr != nil {
		return total, procErr
	}
	return total, err
}

// PerShardMetrics snapshots every shard engine's counters in shard order.
// Like all control methods it must be called from the driver goroutine.
// Per-shard counters include replicated edges, and per-shard match counts are
// pre-deduplication; serving layers expose them so operators can spot skewed
// partitions.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	out := make([]core.Metrics, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.metrics(s.running)
	}
	return out
}

// Metrics aggregates per-shard counters into the single-engine Metrics
// shape. Work counters (EdgesProcessed, LocalSearches, live graph sizes, …)
// are sums over shards and therefore include replicated edges; MatchesEmitted
// and per-query Matches are post-deduplication counts as reported on Events.
// Registrations reflects the front-end view (each active query counted once).
func (s *ShardedEngine) Metrics() core.Metrics {
	snaps := s.PerShardMetrics()
	var m core.Metrics
	perQueryIdx := map[string]int{}
	for _, sm := range snaps {
		m.EdgesProcessed += sm.EdgesProcessed
		m.EdgesDropped += sm.EdgesDropped
		m.LocalSearches += sm.LocalSearches
		m.PartialMatches += sm.PartialMatches
		m.EmittedTracked += sm.EmittedTracked
		m.PartialsPruned += sm.PartialsPruned
		m.PruneRuns += sm.PruneRuns
		m.LiveEdges += sm.LiveEdges
		m.LiveVertices += sm.LiveVertices
		m.ExpiredEdges += sm.ExpiredEdges
		m.Replans += sm.Replans
		m.ReplanChecks += sm.ReplanChecks
		m.ReplanEdgesReplayed += sm.ReplanEdgesReplayed
		for _, qm := range sm.Queries {
			idx, ok := perQueryIdx[qm.Name]
			if !ok {
				idx = len(m.Queries)
				perQueryIdx[qm.Name] = idx
				m.Queries = append(m.Queries, core.QueryMetrics{Name: qm.Name, Strategy: qm.Strategy})
			}
			m.Queries[idx].PartialMatches += qm.PartialMatches
			m.Queries[idx].EmittedTracked += qm.EmittedTracked
			m.Queries[idx].LocalSearches += qm.LocalSearches
			// Each shard re-plans against its own partition's statistics, so
			// plan state can legitimately differ per shard: report the
			// furthest generation (with that shard's tree shape) and the
			// total swap count. Match-set canonicality does not depend on
			// the shards agreeing — every shard deduplicates its own
			// emissions across swap boundaries and the merger deduplicates
			// across shards.
			m.Queries[idx].Adaptive = m.Queries[idx].Adaptive || qm.Adaptive
			m.Queries[idx].Replans += qm.Replans
			if qm.PlanGeneration > m.Queries[idx].PlanGeneration {
				m.Queries[idx].PlanGeneration = qm.PlanGeneration
				m.Queries[idx].PlanNodes = qm.PlanNodes
				m.Queries[idx].PlanDepth = qm.PlanDepth
				m.Queries[idx].Strategy = qm.Strategy
				// Per-node statistics and the replan audit describe one
				// concrete tree; summing across shards would mix plans, so
				// report the shard with the newest plan generation.
				m.Queries[idx].Nodes = qm.Nodes
				m.Queries[idx].LastReplanAudit = qm.LastReplanAudit
			}
		}
	}
	if len(snaps) > 0 {
		m.Registrations = snaps[0].Registrations
	}
	// Shared-plan DAG snapshots merge by canonical node signature: every
	// shard builds the same DAG structure for the same registrations, so the
	// per-node counters sum meaningfully (mqo.MergeStats).
	var dagSnaps []mqo.Stats
	for _, sm := range snaps {
		if sm.MQO != nil {
			dagSnaps = append(dagSnaps, *sm.MQO)
		}
	}
	if len(dagSnaps) > 0 {
		merged := mqo.MergeStats(dagSnaps...)
		m.MQO = &merged
	}
	unique, _, perQuery := s.dedup.stats()
	m.MatchesEmitted = unique
	for i := range m.Queries {
		m.Queries[i].Matches = perQuery[m.Queries[i].Name]
	}
	return m
}
