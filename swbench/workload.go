package main

import (
	"fmt"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stream"
	"github.com/streamworks/streamworks/internal/wire"
)

// spec fixes one workload's shape. The offered rate is not here: it is read
// from the workload's line in BENCHMARK.json, so the rate a run used is the
// rate the benchmark records.
type spec struct {
	name   string
	served bool
	// window is the widest query window. It is the retention of the system
	// under test and the length of stream replayed before measuring.
	window time.Duration
	batch  int
	// closedFactor sizes the closed-loop edge pool as a multiple of the
	// offered rate times the phase length: the phase ends early, and says
	// so, if the system outruns it.
	closedFactor float64
}

var specs = []spec{
	{name: "news-served", served: true, window: 5 * time.Minute, batch: 512, closedFactor: 3.5},
	// The base window of the variants is manyBase; the news variants stretch
	// it 20x and the window jitter adds up to 3/8, so the widest is 27.5x.
	{name: "many-queries-churn", served: false, window: manyBase * 55 / 2, batch: 256, closedFactor: 4.5},
}

const (
	// manyBase is the base window of the many-queries variants. At a 1 ms
	// netflow gap the widest (news) variant then spans 27.5k netflow edges
	// plus about 3.8k news edges, which keeps the warm-up to a few seconds.
	manyBase = time.Second
	// manyQueries is the number of standing variants; churnEvery is the
	// edge interval at which one is replaced.
	manyQueries = 200
	churnEvery  = 2048
	netflowGap  = time.Millisecond
)

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	queries []*query.Graph
	// warm is the number of leading edges that cover one widest window;
	// both measured phases start after them.
	warm int
	// batches are the ingest batches as ranges of the stream, kept only as
	// their pre-encoded binary ingest bodies: pointer-free bytes that the
	// garbage collector does not scan while the system runs.
	batches []bounds
	bodies  [][]byte
	// batchOf maps an edge ID to the batch that carries it.
	batchOf []int32
	// Churn (many-queries-churn): fresh variants to register, and the seed
	// of the order in which registered variants are picked for removal.
	fresh     []*query.Graph
	churnSeed int64
}

type bounds struct{ lo, hi int }

// total is the number of edges in the stream.
func (in *inputs) total() int { return in.batches[len(in.batches)-1].hi }

// batchEdges decodes the edges of batch b.
func (in *inputs) batchEdges(b int) []graph.StreamEdge {
	edges, err := decodeBody(in.bodies[b])
	if err != nil {
		// The bodies were encoded by this process from valid edges.
		panic(err)
	}
	return edges
}

var streamStart = graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))

// chunkGen generates the k-th chunk of a stream: time-ordered edges starting
// after start, with edge IDs handed out by seq. Generating the stream a
// chunk at a time, and keeping it only as encoded bodies, holds the
// benchmark's own memory to a few hundred MB.
type chunkGen func(k int, start graph.Timestamp, seq *gen.Sequence) []graph.StreamEdge

// build generates the workload's stream from seed: the warm-up plus enough
// edges for an open-loop phase at rate and a closed-loop phase of the same
// length at up to closedFactor times the rate.
func build(sp spec, seed int64, rate float64, phase time.Duration) (*inputs, error) {
	need := int(rate*phase.Seconds()) + int(sp.closedFactor*rate*phase.Seconds())
	in := &inputs{}
	var (
		next     chunkGen
		articles graph.VertexID
	)
	switch sp.name {
	case "news-served":
		next = func(k int, start graph.Timestamp, seq *gen.Sequence) []graph.StreamEdge {
			return newsChunk(newsConfig(seed, k, start), seq, &articles)
		}
		in.queries = []*query.Graph{gen.NewsEventQuery(sp.window, 2, "")}
	case "many-queries-churn":
		next = func(k int, start graph.Timestamp, seq *gen.Sequence) []graph.StreamEdge {
			return manyChunk(seed, k, start, seq, &articles)
		}
		in.queries = gen.QueryVariants(manyQueries, manyBase)
		in.churnSeed = seed + 3
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}

	var (
		cur      []graph.StreamEdge
		warmEnd  graph.Timestamp
		warmDone bool
		n        int
		maxID    graph.EdgeID
		scratch  []byte
	)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		b := len(in.batches)
		in.batches = append(in.batches, bounds{n - len(cur), n})
		for _, se := range cur {
			for int(se.Edge.ID) >= len(in.batchOf) {
				in.batchOf = append(in.batchOf, make([]int32, len(in.batchOf)+1024)...)
			}
			in.batchOf[se.Edge.ID] = int32(b)
		}
		body := append([]byte(nil), wire.StreamMagic...)
		for _, se := range cur {
			body, scratch = wire.AppendEdgeFrame(body, scratch, se)
		}
		in.bodies = append(in.bodies, body)
		cur = cur[:0]
	}
	start := streamStart
	for k := 0; !warmDone || n-in.warm < need; k++ {
		chunk := next(k, start, gen.NewSequence(0, maxID))
		for _, se := range chunk {
			if n == 0 {
				warmEnd = se.Edge.Timestamp + graph.Timestamp(sp.window)
			}
			// Warm-up batches end exactly at the warm-up boundary so that no
			// measured batch carries warm-up edges.
			if !warmDone && se.Edge.Timestamp >= warmEnd {
				flush()
				in.warm, warmDone = n, true
			}
			cur = append(cur, se)
			n++
			if len(cur) == sp.batch {
				flush()
			}
			maxID = max(maxID, se.Edge.ID)
		}
		start = chunk[len(chunk)-1].Edge.Timestamp
	}
	flush()
	if !sp.served {
		in.fresh = gen.QueryVariants(manyQueries+n/churnEvery+1, manyBase)[manyQueries:]
	}
	return in, nil
}

// firstBatchAfterWarm is the index of the first measured batch.
func (in *inputs) firstBatchAfterWarm() int {
	for b, s := range in.batches {
		if s.lo >= in.warm {
			return b
		}
	}
	return len(in.batches)
}

// lastBatch returns the batch carrying the latest-sent edge of a match.
func (in *inputs) lastBatch(ids []uint64) int {
	last := -1
	for _, id := range ids {
		if id < uint64(len(in.batchOf)) {
			last = max(last, int(in.batchOf[id]))
		}
	}
	return last
}

// netflowChunk is 100k edges of the Fig. 3 background with attacks woven
// in: per thousand background edges two Smurfs (eight amplifier legs
// each), two worm chains and one exfiltration. Every chunk draws on the
// same hosts (IDs 1..2100) and the same contact ranking.
func netflowChunk(seed int64, k int, start graph.Timestamp, seq *gen.Sequence) []graph.StreamEdge {
	const n = 100_000
	cfg := gen.NetFlowConfig{
		Hosts: 2000, Servers: 100, Edges: n, Start: start,
		MeanGap: netflowGap, ContactSkew: 1.4, Seed: chunkSeed(seed, k),
	}
	flow := gen.NewNetFlow(cfg, seq)
	bg := flow.Generate()
	end := bg[len(bg)-1].Edge.Timestamp
	ic := gen.DefaultInjectorConfig()
	ic.Seed = chunkSeed(seed, k) + 1
	ic.Spread = 10 * time.Second
	inj := gen.NewInjector(ic, flow.Hosts(), flow.Sequence())
	smurf, _ := inj.Inject(gen.AttackSmurf, n/500, start, end)
	worm, _ := inj.Inject(gen.AttackWorm, n/500, start, end)
	exfil, _ := inj.Inject(gen.AttackExfiltration, n/1000, start, end)
	return stream.Merge(bg, smurf, worm, exfil)
}

// newsChunk is one chunk of the article stream. Every chunk's generator
// hands out the same vocabulary IDs (keywords, locations, people and
// organisations come first), so the vocabulary is shared across chunks;
// its article IDs are moved past the *articles used by earlier chunks.
func newsChunk(cfg gen.NewsConfig, seq *gen.Sequence, articles *graph.VertexID) []graph.StreamEdge {
	vocab := seq.VertexHigh() + graph.VertexID(cfg.Keywords+cfg.Locations+cfg.People+cfg.Orgs)
	edges, _ := gen.NewNews(cfg, seq).Generate()
	shift := *articles
	for i := range edges {
		if src := edges[i].Edge.Source; src > vocab {
			edges[i].Edge.Source = src + shift
			*articles = max(*articles, src+shift-vocab)
		}
	}
	return edges
}

// manyChunk is 100 s of the merged many-queries stream: the netflow chunk
// plus an article every 50 ms on average (a 2000-keyword, 300-location
// vocabulary and no injected event clusters), over one ID space.
func manyChunk(seed int64, k int, start graph.Timestamp, seq *gen.Sequence, articles *graph.VertexID) []graph.StreamEdge {
	flow := netflowChunk(seed, k, start, seq)
	nc := newsConfig(seed+2, k, start)
	nc.Gap = 50 * time.Millisecond
	nc.Articles = int((flow[len(flow)-1].Edge.Timestamp - start) / graph.Timestamp(nc.Gap))
	nc.Keywords, nc.Locations, nc.EventClusters = 2000, 300, 0
	// Vocabulary IDs follow the 2100 hosts and servers.
	news := newsChunk(nc, gen.NewSequence(2100, maxEdgeID(flow)), articles)
	return stream.Merge(flow, news)
}

func maxEdgeID(edges []graph.StreamEdge) graph.EdgeID {
	var m graph.EdgeID
	for _, se := range edges {
		m = max(m, se.Edge.ID)
	}
	return m
}

// newsConfig is the default article stream, about 15k articles (some 100k
// edges) per chunk.
func newsConfig(seed int64, k int, start graph.Timestamp) gen.NewsConfig {
	cfg := gen.DefaultNewsConfig()
	cfg.Articles = 15_000
	cfg.Seed = chunkSeed(seed, k)
	cfg.Start = start
	return cfg
}

func chunkSeed(seed int64, k int) int64 { return seed*7919 + int64(k) }
