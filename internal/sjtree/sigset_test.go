package sjtree

import (
	"testing"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// emittedAt builds a two-edge complete-match identity whose oldest edge has
// timestamp start.
func emittedAt(id graph.EdgeID, start graph.Timestamp) *match.Match {
	m := match.New()
	m.BindEdge(0, id, start)
	m.BindEdge(1, id+1_000_000, start+5)
	return m
}

// completeSmurf builds a complete smurf match on edges id and id+1, both at
// timestamp ts.
func completeSmurf(id graph.EdgeID, ts graph.Timestamp) *match.Match {
	return reqMatch(1, 2, id, ts).Join(replyMatch(2, 3, id+1, ts))
}

func TestCompleteSetSweepForgetsExpiredEntries(t *testing.T) {
	s := newCompleteSet()
	// Below the floor a sweep never scans, whatever the cutoff.
	for i := 0; i < sweepFloor-1; i++ {
		if !s.add(emittedAt(graph.EdgeID(i), graph.Timestamp(i))) {
			t.Fatalf("fresh entry %d rejected", i)
		}
	}
	if n := s.sweep(1 << 40); n != 0 || s.len() != sweepFloor-1 {
		t.Fatalf("sweep below the floor removed %d, len %d", n, s.len())
	}
	s.add(emittedAt(sweepFloor-1, sweepFloor-1))
	// At the floor the sweep drops exactly the entries starting before the
	// cutoff: starts 0..39 go, 40..63 stay.
	if n := s.sweep(40); n != 40 || s.len() != sweepFloor-40 {
		t.Fatalf("sweep(40) removed %d, len %d; want 40 removed, %d kept", n, s.len(), sweepFloor-40)
	}
	if s.add(emittedAt(50, 50)) {
		t.Fatal("an entry kept by the sweep no longer deduplicates")
	}
	if !s.add(emittedAt(10, 10)) {
		t.Fatal("a swept entry still deduplicates")
	}
	// The next scan waits for twice the kept size plus the floor.
	if want := 2*(sweepFloor-40) + sweepFloor; s.sweepAt != want {
		t.Fatalf("sweepAt = %d, want %d", s.sweepAt, want)
	}
	if n := s.sweep(1 << 40); n != 0 {
		t.Fatalf("sweep before the set doubled removed %d", n)
	}
}

// TestCompleteSetSweepBucketCollisions drives entries that share a hash
// bucket through a sweep: equal hashes with different bindings must be
// filtered entry by entry.
func TestCompleteSetSweepBucketCollisions(t *testing.T) {
	s := newCompleteSet()
	for i := 0; i < 2*sweepFloor; i++ {
		s.add(emittedAt(graph.EdgeID(i), graph.Timestamp(i)))
	}
	// Fold every entry into one bucket to force collisions.
	var all []emittedEntry
	//swvet:unordered the test only gathers entries; their order does not matter
	for _, b := range s.buckets {
		all = append(all, b...)
	}
	s.buckets = map[uint64][]emittedEntry{7: all}
	if n := s.sweep(graph.Timestamp(sweepFloor)); n != sweepFloor || s.len() != sweepFloor {
		t.Fatalf("removed %d, len %d; want %d each", n, s.len(), sweepFloor)
	}
	for _, e := range s.buckets[7] {
		if e.start < graph.Timestamp(sweepFloor) {
			t.Fatalf("entry starting at %d survived the sweep", e.start)
		}
	}
}

func TestTreeSweepEmittedSurvivesInherit(t *testing.T) {
	q := smurfQuery(0)
	old := mustTree(t, q, decompose.StrategyLazy)
	for i := 0; i < sweepFloor; i++ {
		old.acceptComplete(completeSmurf(graph.EdgeID(10*i), graph.Timestamp(i)))
	}
	if got := old.EmittedTracked(); got != sweepFloor {
		t.Fatalf("EmittedTracked = %d, want %d", got, sweepFloor)
	}
	fresh := mustTree(t, q, decompose.StrategyLazy)
	fresh.InheritEmitted(old)
	if n := fresh.SweepEmitted(sweepFloor / 2); n != sweepFloor/2 {
		t.Fatalf("SweepEmitted removed %d, want %d", n, sweepFloor/2)
	}
	if got := fresh.EmittedTracked(); got != sweepFloor/2 {
		t.Fatalf("EmittedTracked after sweep = %d, want %d", got, sweepFloor/2)
	}
	// A kept emission is still a duplicate after the swap; a swept one is
	// not (only an edge ID reused after expiry can bring it back).
	if got := fresh.acceptComplete(completeSmurf(10*(sweepFloor-1), sweepFloor-1)); got != nil {
		t.Fatal("kept emission re-emitted after inherit")
	}
	if got := fresh.acceptComplete(completeSmurf(0, 0)); len(got) != 1 {
		t.Fatal("swept emission still suppressed")
	}
	if fresh.CompleteCount() != sweepFloor+1 {
		t.Fatalf("CompleteCount = %d, want %d", fresh.CompleteCount(), sweepFloor+1)
	}
}

func TestEmittedSetSweep(t *testing.T) {
	s := NewEmittedSet()
	for i := 0; i < sweepFloor; i++ {
		s.Add(emittedAt(graph.EdgeID(i), graph.Timestamp(i)))
	}
	if n := s.Sweep(sweepFloor / 4); n != sweepFloor/4 || s.Len() != sweepFloor-sweepFloor/4 {
		t.Fatalf("Sweep removed %d, Len %d", n, s.Len())
	}
	if s.Total() != sweepFloor {
		t.Fatalf("Total = %d; a sweep must not change the emission count", s.Total())
	}
}
