package match

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// signatureOracle is the original Signature: one "qe:de" string per bound
// pattern edge, sorted as strings and comma-joined. Signature must
// reproduce it byte for byte, since signatures are pinned by goldens and
// compared across processes.
func signatureOracle(m *Match) string {
	parts := make([]string, 0, m.ne)
	for qe, de := range m.edges {
		if de == unbound {
			continue
		}
		parts = append(parts, strconv.Itoa(qe)+":"+strconv.FormatUint(de, 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// randomWideMatch binds a random subset of 1–15 pattern edges (leaving
// unbound holes) to data edges of widely varying decimal length.
func randomWideMatch(rng *rand.Rand) *Match {
	ne := rng.Intn(15) + 1
	var m *Match
	if rng.Intn(2) == 0 {
		m = NewSized(2, ne)
	} else {
		m = New()
	}
	for qe := 0; qe < ne; qe++ {
		if qe != ne-1 && rng.Intn(3) == 0 {
			continue // a hole
		}
		var de uint64
		switch rng.Intn(3) {
		case 0:
			de = uint64(rng.Intn(10))
		case 1:
			de = uint64(rng.Int63())
		default:
			de = ^uint64(0) - 1 - uint64(rng.Intn(1000)) // widest IDs below the sentinel
		}
		m.BindEdge(query.EdgeID(qe), graph.EdgeID(de), graph.Timestamp(qe))
	}
	return m
}

func TestSignatureMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	for i := 0; i < 20_000; i++ {
		m := randomWideMatch(rng)
		if got, want := m.Signature(), signatureOracle(m); got != want {
			t.Fatalf("Signature = %q, oracle %q", got, want)
		}
	}
	if got := New().Signature(); got != "" {
		t.Fatalf("empty match signature = %q", got)
	}
	// The string order, not the index order, decides wide patterns.
	m := New()
	for _, qe := range []query.EdgeID{2, 1, 10, 11} {
		m.BindEdge(qe, graph.EdgeID(qe)*7, 0)
	}
	if got, want := m.Signature(), "10:70,11:77,1:7,2:14"; got != want {
		t.Fatalf("Signature = %q, want %q", got, want)
	}
}

func TestSignatureSingleAllocation(t *testing.T) {
	for _, ne := range []int{4, 15} {
		m := NewSized(ne+1, ne)
		for qe := 0; qe < ne; qe++ {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(1_000_000+qe), graph.Timestamp(qe))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = m.Signature() }); allocs > 1 {
			t.Fatalf("%d-edge Signature: %.1f allocs, want <= 1", ne, allocs)
		}
	}
}

func BenchmarkSignature(b *testing.B) {
	m := NewSized(4, 4)
	for qe := 0; qe < 4; qe++ {
		m.BindEdge(query.EdgeID(qe), graph.EdgeID(1_000_000+qe), graph.Timestamp(qe))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Signature()
	}
}
