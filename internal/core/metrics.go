package core

import (
	"fmt"
	"strings"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/query"
)

// Metrics is a snapshot of engine counters. Obtain one with Engine.Metrics.
type Metrics struct {
	// EdgesProcessed is the number of stream edges admitted into the graph.
	EdgesProcessed uint64
	// EdgesDropped counts edges rejected for timestamp regression beyond the
	// slack or duplicate IDs.
	EdgesDropped uint64
	// MatchesEmitted is the total number of complete matches across queries.
	MatchesEmitted uint64
	// LocalSearches is the total number of primitive local searches run.
	LocalSearches uint64
	// PartialMatches is the number of partial matches currently stored
	// across all SJ-Trees (memory pressure proxy).
	PartialMatches int
	// EmittedTracked is the number of emitted matches currently remembered
	// by the per-query exactly-once sets, summed over registrations. Entries
	// are forgotten once their oldest edge leaves the retention window, so
	// under a bounded window it plateaus instead of growing with the stream.
	EmittedTracked int
	// PartialsPruned is the cumulative number of partial matches discarded
	// because they could no longer complete within their query windows.
	PartialsPruned uint64
	// PruneRuns is the number of pruning sweeps executed.
	PruneRuns uint64
	// Registrations is the number of currently registered (active) queries;
	// unregistering a query decreases it, keeping the snapshot truthful for
	// long-lived multi-tenant servers.
	Registrations uint64
	// Replans is the cumulative number of adaptive plan hot-swaps across all
	// registrations; ReplanChecks counts drift evaluations (a check costs a
	// trial decomposition per adaptive query, a replan additionally replays
	// the retained window), and ReplanEdgesReplayed is the total volume of
	// that replay work.
	Replans             uint64
	ReplanChecks        uint64
	ReplanEdgesReplayed uint64
	// LiveEdges / LiveVertices describe the current dynamic graph size.
	LiveEdges    int
	LiveVertices int
	// ExpiredEdges is the number of edges evicted from the sliding window.
	ExpiredEdges uint64
	// Queries holds per-registration detail.
	Queries []QueryMetrics
	// MQO is the shared-plan DAG snapshot, nil unless the engine runs with
	// Config.SharedPlans. Per-node stats are keyed by canonical signature,
	// so sharded front-ends aggregate them with mqo.MergeStats.
	MQO *mqo.Stats
}

// QueryMetrics is the per-registration portion of a metrics snapshot.
type QueryMetrics struct {
	Name           string
	Strategy       decompose.Strategy
	Matches        uint64
	PartialMatches int
	LocalSearches  uint64
	// EmittedTracked is the size of the query's exactly-once emitted set
	// (summed across shards).
	EmittedTracked int
	// Plan detail: Adaptive reports whether the registration opted into
	// re-planning, PlanGeneration is the running plan's generation (1 = the
	// registration-time plan; sharded engines report the maximum across
	// shards), Replans counts completed hot-swaps (summed across shards),
	// and PlanNodes/PlanDepth describe the current SJ-Tree shape.
	Adaptive       bool
	PlanGeneration uint64
	Replans        uint64
	PlanNodes      int
	PlanDepth      int
	// Nodes holds live per-SJ-tree-node statistics in plan (pre-order)
	// order: the observed side of the selectivity estimates the plan was
	// built from. Sharded engines report the node detail of the shard with
	// the newest plan generation (summing across shards would mix plans).
	Nodes []NodeMetrics
	// LastReplanAudit is the most recent adaptive drift-check record
	// (fired or declined), nil until the first check runs.
	LastReplanAudit *ReplanAudit
}

// NodeMetrics is one SJ-tree node's slice of a metrics snapshot.
type NodeMetrics struct {
	// Edges lists the query pattern edges the node's subgraph covers.
	Edges  []query.EdgeID
	IsLeaf bool
	// Stored/Inserted are the live and cumulative match counts;
	// Partitions is the current number of cut-projection hash partitions.
	Stored     int
	Inserted   uint64
	Partitions int
	// JoinAttempts/JoinHits count sibling-join probes and successes;
	// Pruned counts matches discarded from the node.
	JoinAttempts uint64
	JoinHits     uint64
	Pruned       uint64
	// EstCardinality is the planner's estimate for the node's subgraph at
	// plan-install time; ObservedRatio is Inserted / EstCardinality (zero
	// when the estimate is zero) — above 1 the estimator undershot, below
	// 1 it overshot.
	EstCardinality float64
	ObservedRatio  float64
}

// String renders the snapshot as a small fixed-width report.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "edges=%d dropped=%d matches=%d partials=%d localSearches=%d liveEdges=%d liveVertices=%d expired=%d replans=%d\n",
		m.EdgesProcessed, m.EdgesDropped, m.MatchesEmitted, m.PartialMatches,
		m.LocalSearches, m.LiveEdges, m.LiveVertices, m.ExpiredEdges, m.Replans)
	if m.MQO != nil {
		fmt.Fprintf(&sb, "  mqo: nodes=%d shared=%d sharedHits=%d attachments=%d\n",
			m.MQO.Nodes, m.MQO.SharedNodes, m.MQO.SharedHits, m.MQO.Attachments)
	}
	for _, q := range m.Queries {
		fmt.Fprintf(&sb, "  %-24s strategy=%-10s matches=%-8d partials=%-8d searches=%-8d plan=gen%d/replans%d\n",
			q.Name, q.Strategy, q.Matches, q.PartialMatches, q.LocalSearches, q.PlanGeneration, q.Replans)
	}
	return sb.String()
}
