package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

type legKey struct {
	typ string
	out bool
}

// checkIncidence verifies the graph's incidence bookkeeping: every stored
// edge's indexes point at itself, the lists hold exactly the stored edges,
// every vertex's legs equal the buckets recomputed from OutEdges/InEdges,
// and no incidence (legs included) survives for a vertex without incident
// edges.
func checkIncidence(t *testing.T, g *Graph) {
	t.Helper()
	for _, e := range g.edges {
		if out := g.OutEdges(e.Source); int(e.outIdx) >= len(out) || out[e.outIdx] != e {
			t.Fatalf("%v: out index %d does not point at the edge", e, e.outIdx)
		}
		if in := g.InEdges(e.Target); int(e.inIdx) >= len(in) || in[e.inIdx] != e {
			t.Fatalf("%v: in index %d does not point at the edge", e, e.inIdx)
		}
	}
	outs, ins := 0, 0
	for v, a := range g.adj {
		if len(a.out) == 0 && len(a.in) == 0 {
			t.Fatalf("v%d: incidence entry with no incident edges (legs %v)", v, a.legs)
		}
		if !g.HasVertex(v) {
			t.Fatalf("v%d: incidence entry for a removed vertex", v)
		}
		outs += len(a.out)
		ins += len(a.in)
		want := map[legKey]int32{}
		for _, e := range g.OutEdges(v) {
			want[legKey{e.Type, e.Source == v}]++
		}
		for _, e := range g.InEdges(v) {
			want[legKey{e.Type, e.Source == v}]++
		}
		got := map[legKey]int32{}
		for _, l := range g.Legs(v) {
			k := legKey{l.Type, l.Out}
			if _, dup := got[k]; dup || l.Count <= 0 {
				t.Fatalf("v%d: duplicate or empty leg %+v in %v", v, l, g.Legs(v))
			}
			got[k] = l.Count
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("v%d: legs %v, recomputed %v", v, got, want)
		}
	}
	if outs != len(g.edges) || ins != len(g.edges) {
		t.Fatalf("lists hold %d out and %d in entries for %d edges", outs, ins, len(g.edges))
	}
	for id := range g.vertices {
		if g.Degree(id) == 0 && g.Legs(id) != nil {
			t.Fatalf("v%d: legs %v survive without incident edges", id, g.Legs(id))
		}
	}
}

// scanRemove is the scan-and-swap removal the stored indexes replace: the
// last entry moves into the removed slot.
func scanRemove(list []EdgeID, id EdgeID) []EdgeID {
	for i, e := range list {
		if e == id {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func ids(list []*Edge) []EdgeID {
	out := make([]EdgeID, len(list))
	for i, e := range list {
		out[i] = e.ID
	}
	return out
}

// TestIncidenceInvariants drives a sliding-window graph with random adds
// (hub skew, self-loops, parallel edges, duplicate IDs), explicit removals,
// expiry and isolated-vertex removal. After every operation it checks the
// incidence bookkeeping and that each incidence list has exactly the order
// a scan-and-swap removal would have left, so matchers iterate as before.
func TestIncidenceInvariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// The model keeps each vertex's lists as edge IDs under
			// append and scan-and-swap removal. Removal goes by ID: the
			// expiry of an explicitly removed edge removes a later edge
			// that reused its ID, so ends tracks the live edge per ID.
			modelOut, modelIn := map[VertexID][]EdgeID{}, map[VertexID][]EdgeID{}
			ends := map[EdgeID][2]VertexID{}
			forget := func(e *Edge) {
				end := ends[e.ID]
				delete(ends, e.ID)
				modelOut[end[0]] = scanRemove(modelOut[end[0]], e.ID)
				modelIn[end[1]] = scanRemove(modelIn[end[1]], e.ID)
			}
			window := time.Duration(20+rng.Intn(40)) * time.Nanosecond
			d := NewDynamic(window, WithSlack(5*time.Nanosecond), WithExpiryCallback(forget))
			g := d.Graph()
			types := []string{"a", "b", "c"}
			ts := Timestamp(0)
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(20); {
				case r < 15:
					ts += Timestamp(rng.Intn(3))
					src, dst := VertexID(rng.Intn(12)), VertexID(rng.Intn(12))
					if rng.Intn(3) == 0 {
						src = 0
					}
					if rng.Intn(10) == 0 {
						dst = src
					}
					id := EdgeID(op + 1)
					if rng.Intn(20) == 0 {
						id = EdgeID(rng.Intn(op+1) + 1)
					}
					at := ts - Timestamp(rng.Intn(8))
					// Apply adds the edge before it expires others, so the
					// model appends first when the edge will be accepted.
					accept := !g.HasEdge(id) && (!d.seenAny || at >= d.watermark-Timestamp(d.slack))
					if accept {
						ends[id] = [2]VertexID{src, dst}
						modelOut[src] = append(modelOut[src], id)
						modelIn[dst] = append(modelIn[dst], id)
					}
					if _, err := d.Apply(streamEdge(id, src, dst, types[rng.Intn(len(types))], at)); (err == nil) != accept {
						t.Fatalf("op %d: Apply error %v, model predicted accept=%v", op, err, accept)
					}
				case r < 17:
					if ids := g.EdgeIDs(); len(ids) > 0 {
						e, _ := g.Edge(ids[rng.Intn(len(ids))])
						if err := g.RemoveEdge(e.ID); err != nil {
							t.Fatal(err)
						}
						forget(e)
					}
				case r < 19:
					g.RemoveIsolatedVertex(VertexID(rng.Intn(12)))
				default:
					ts += Timestamp(rng.Intn(int(window)))
					d.AdvanceTo(ts)
				}
				checkIncidence(t, g)
				for v := VertexID(0); v < 12; v++ {
					out, in := ids(g.OutEdges(v)), ids(g.InEdges(v))
					if fmt.Sprint(out, in) != fmt.Sprint(modelOut[v], modelIn[v]) {
						t.Fatalf("op %d: v%d lists %v %v, scan-and-swap order %v %v", op, v, out, in, modelOut[v], modelIn[v])
					}
				}
			}
			d.AdvanceTo(ts + Timestamp(2*window))
			checkIncidence(t, g)
			if d.NumEdges() != 0 || len(g.adj) != 0 {
				t.Fatalf("after the window passed: %d edges, %d incidence entries", d.NumEdges(), len(g.adj))
			}
		})
	}
}

// BenchmarkDynamicApplyHub applies edges to a sliding window holding 1k,
// 10k and 100k live edges, all on one hub, so every Apply adds one hub edge
// and expires the oldest. ns/op is per edge and stays flat as the hub's degree
// grows.
func BenchmarkDynamicApplyHub(b *testing.B) {
	for _, live := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			d := NewDynamic(time.Duration(live))
			hub := func(i int) StreamEdge {
				se := streamEdge(EdgeID(i+1), 0, VertexID(i%5000+1), []string{"a", "b", "c"}[i%3], Timestamp(i))
				if i%2 == 1 {
					se.Edge.Source, se.Edge.Target = se.Edge.Target, se.Edge.Source
				}
				return se
			}
			// Fill the window, then turn it over once so the timed edges
			// meet a steady-state incidence order.
			for i := 0; i < 2*live; i++ {
				if _, err := d.Apply(hub(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 2 * live; i < 2*live+b.N; i++ {
				if _, err := d.Apply(hub(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
