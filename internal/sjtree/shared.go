package sjtree

import (
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// This file exports the SJ-Tree's match-storage machinery in a form the
// shared-plan evaluation DAG (internal/mqo) can use for nodes owned by
// multiple parents. A private Tree wires collection, partition and emitted
// set to exactly one parent each; a shared DAG node keeps one Collection
// (its canonical match set) plus one Partition per parent link, and each
// consuming query keeps its own EmittedSet — so per-query dedup semantics
// are byte-identical to a private tree while the underlying matches are
// computed once.

// Collection is a deduplicated set of matches of one subpattern: the
// Property-3 match collection of a DAG node, without a fixed parent. It
// dedups on the cached 64-bit edge-set hash with equality-checked buckets,
// the same identity a private tree node uses.
type Collection struct {
	stored   []*match.Match
	sigs     sigSet
	inserted uint64
	pruned   uint64
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{sigs: newSigSet()}
}

// Add records m, returning false (set unchanged) when an equal edge set is
// already stored.
func (c *Collection) Add(m *match.Match) bool {
	if !c.sigs.add(m) {
		return false
	}
	c.stored = append(c.stored, m)
	c.inserted++
	return true
}

// Stored returns the live matches. The slice is owned by the collection —
// callers iterate it, they do not retain or mutate it.
func (c *Collection) Stored() []*match.Match { return c.stored }

// Len returns the number of live matches.
func (c *Collection) Len() int { return len(c.stored) }

// InsertedTotal returns the cumulative number of distinct matches ever added.
func (c *Collection) InsertedTotal() uint64 { return c.inserted }

// PrunedTotal returns the cumulative number of matches pruned.
func (c *Collection) PrunedTotal() uint64 { return c.pruned }

// PruneWhere removes every stored match for which drop returns true and
// returns how many were removed.
func (c *Collection) PruneWhere(drop func(*match.Match) bool) int {
	kept := c.stored[:0]
	for _, m := range c.stored {
		if drop(m) {
			c.sigs.remove(m)
			continue
		}
		kept = append(kept, m)
	}
	removed := len(c.stored) - len(kept)
	for i := len(kept); i < len(c.stored); i++ {
		c.stored[i] = nil
	}
	c.stored = kept
	c.pruned += uint64(removed)
	return removed
}

// Partition hash-partitions matches by their projection onto a fixed cut
// vertex set (Property 4), so a sibling join is a map lookup. A shared DAG
// node owns one Partition per parent link, each keyed on that parent's cut;
// unlike a Collection it does not deduplicate — its entries are remapped
// views of an already-deduplicated collection.
type Partition struct {
	buckets map[match.ProjectionKey][]*match.Match
	stored  int
}

// NewPartition returns an empty partition.
func NewPartition() *Partition {
	return &Partition{buckets: make(map[match.ProjectionKey][]*match.Match)}
}

// Add stores m under key.
func (p *Partition) Add(key match.ProjectionKey, m *match.Match) {
	p.buckets[key] = append(p.buckets[key], m)
	p.stored++
}

// Probe returns the matches stored under key. The slice is owned by the
// partition — iterate, do not retain.
func (p *Partition) Probe(key match.ProjectionKey) []*match.Match {
	return p.buckets[key]
}

// Len returns the number of stored matches.
func (p *Partition) Len() int { return p.stored }

// Partitions returns the number of live projection buckets — the fan-out of
// a sibling join probe.
func (p *Partition) Partitions() int { return len(p.buckets) }

// PruneWhere removes every stored match for which drop returns true and
// returns how many were removed.
func (p *Partition) PruneWhere(drop func(*match.Match) bool) int {
	removed := 0
	//swvet:unordered drop is a pure predicate: each match is kept or removed independently of visit order
	for key, list := range p.buckets {
		kept := list[:0]
		for _, m := range list {
			if drop(m) {
				removed++
				continue
			}
			kept = append(kept, m)
		}
		if len(kept) == 0 {
			delete(p.buckets, key)
		} else {
			p.buckets[key] = kept
		}
	}
	p.stored -= removed
	return removed
}

// EmittedSet deduplicates one query's emitted complete matches by edge
// binding — the per-consumer half of acceptComplete, split out so a shared
// DAG root can fan a complete match out to many queries, each with its own
// exactly-once emission set. Entries are compact EdgeSet copies, like a
// tree's complete-signature set, and are forgotten by Sweep once their
// oldest edge has left the retention window.
type EmittedSet struct {
	set   completeSet
	total uint64
	dups  uint64
}

// NewEmittedSet returns an empty set.
func NewEmittedSet() *EmittedSet {
	return &EmittedSet{set: newCompleteSet()}
}

// Add records m's edge set, returning false when it was already emitted.
func (s *EmittedSet) Add(m *match.Match) bool {
	if !s.set.add(m) {
		s.dups++
		return false
	}
	s.total++
	return true
}

// Total returns the number of distinct matches recorded.
func (s *EmittedSet) Total() uint64 { return s.total }

// Len returns the number of emissions currently remembered for dedup.
func (s *EmittedSet) Len() int { return s.set.len() }

// Sweep forgets the emissions whose span starts before cutoff, the dynamic
// graph's expiry cutoff, once the set has grown enough since its last sweep
// to pay for the scan. It returns the number of entries removed.
func (s *EmittedSet) Sweep(cutoff graph.Timestamp) int { return s.set.sweep(cutoff) }

// DuplicateDrops returns how many Add calls were rejected as duplicates.
func (s *EmittedSet) DuplicateDrops() uint64 { return s.dups }
