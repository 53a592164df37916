package sjtree

import (
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// sigSet deduplicates matches by their exact pattern-edge → data-edge
// binding. It is keyed on the match's cached 64-bit EdgeSetHash with
// equality-checked buckets (match.SameEdges), so it never builds the legacy
// Signature string and a hash collision can never drop a genuine match.
// Bucket slices are almost always length 1.
type sigSet struct {
	buckets map[uint64][]*match.Match
}

func newSigSet() sigSet {
	return sigSet{buckets: make(map[uint64][]*match.Match)}
}

// add records m's edge set. It returns false (and leaves the set unchanged)
// when an equal edge set is already present.
func (s *sigSet) add(m *match.Match) bool {
	h := m.EdgeSetHash()
	bucket := s.buckets[h]
	for _, other := range bucket {
		if other.SameEdges(m) {
			return false
		}
	}
	s.buckets[h] = append(bucket, m)
	return true
}

// completeSet deduplicates emitted complete matches by edge binding. It
// keeps compact EdgeSet copies instead of pinning every emitted Match
// (bindings, caches), each stamped with its match's span start, so that
// sweep can forget entries whose oldest edge has left the retention window:
// such a match can never be derived again (local search, plan-swap replay
// and root backfill only see live edges), so its entry guards nothing. The
// set is therefore bounded by the matches of the retained window rather
// than growing with the stream.
type completeSet struct {
	buckets map[uint64][]emittedEntry
	n       int
	// sweepAt is the size at which the next sweep scans the set: twice what
	// the previous sweep kept plus sweepFloor, so a scan of n entries comes
	// after at least n/2 adds (amortized O(1) per add).
	sweepAt int
}

// sweepFloor is the smallest set size worth sweeping. It is kept small
// because a registration's set only reaches it on its own emissions: a
// large floor never fires for the many low-rate queries of a shared plan,
// which then keep their whole history.
const sweepFloor = 64

// emittedEntry is one remembered emission: its edge binding and the start
// of its span (the timestamp of its oldest edge).
type emittedEntry struct {
	edges match.EdgeSet
	start graph.Timestamp
}

func newCompleteSet() completeSet {
	return completeSet{buckets: make(map[uint64][]emittedEntry), sweepAt: sweepFloor}
}

// add records m's edge set, returning false when already present.
func (s *completeSet) add(m *match.Match) bool {
	h := m.EdgeSetHash()
	bucket := s.buckets[h]
	for _, e := range bucket {
		if m.SameEdgeSet(e.edges) {
			return false
		}
	}
	s.buckets[h] = append(bucket, emittedEntry{edges: m.EdgeSet(), start: m.Span.Start})
	s.n++
	return true
}

// len returns the number of remembered emissions.
func (s *completeSet) len() int { return s.n }

// sweep forgets every entry whose span starts before cutoff — the dynamic
// graph's expiry cutoff (watermark minus retention), below which every edge
// has been evicted. It scans only once the set has reached sweepAt and
// returns the number of entries removed.
func (s *completeSet) sweep(cutoff graph.Timestamp) int {
	if s.n < s.sweepAt {
		return 0
	}
	removed := 0
	//swvet:unordered each entry is kept or dropped on its own span start, independently of visit order
	for h, bucket := range s.buckets {
		kept := bucket[:0]
		for _, e := range bucket {
			if e.start >= cutoff {
				kept = append(kept, e)
			}
		}
		removed += len(bucket) - len(kept)
		if len(kept) == 0 {
			delete(s.buckets, h)
			continue
		}
		clear(bucket[len(kept):])
		s.buckets[h] = kept
	}
	s.n -= removed
	s.sweepAt = 2*s.n + sweepFloor
	return removed
}

// remove forgets the previously added match (by pointer identity, falling
// back to edge-set equality for safety). Removing an absent match is a
// no-op.
func (s *sigSet) remove(m *match.Match) {
	h := m.EdgeSetHash()
	bucket := s.buckets[h]
	for i, other := range bucket {
		if other == m || other.SameEdges(m) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			bucket[last] = nil
			if last == 0 {
				delete(s.buckets, h)
			} else {
				s.buckets[h] = bucket[:last]
			}
			return
		}
	}
}
