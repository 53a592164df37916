package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/query"
)

// reference computes, outside any timed section, the match set the system
// under test must deliver: the in-process single engine with per-query
// plans over the same edges. Summaries are off, which changes plans but not
// match sets, and keeps the reference cheap. Queries are independent, so
// they are split over two engines that run side by side.
//
// The edges are those of the listed batches, in order. The result is one
// digest per query for each prefix of cuts[i] batches, so one pass serves
// runs that sent different numbers of batches.
func reference(in *inputs, batches []int, queries []*query.Graph, retention time.Duration, cuts []int) ([]map[string]digest, error) {
	groups := [][]*query.Graph{nil, nil}
	for i, q := range queries {
		groups[i%2] = append(groups[i%2], q)
	}
	out := make([]map[string]digest, len(cuts))
	for i := range out {
		out[i] = map[string]digest{}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, len(groups))
	)
	for g, qs := range groups {
		if len(qs) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int, qs []*query.Graph) {
			defer wg.Done()
			eng := core.New(&core.Config{Retention: retention})
			for _, q := range qs {
				if _, err := eng.RegisterQuery(q); err != nil {
					errs[g] = fmt.Errorf("reference: registering %s: %w", q.Name(), err)
					return
				}
			}
			acc := map[string]digest{}
			next := 0
			for c, cut := range cuts {
				for ; next < cut && next < len(batches); next++ {
					for _, se := range in.batchEdges(batches[next]) {
						for _, ev := range eng.ProcessEdge(se) {
							d := acc[ev.Query]
							d.add(ev.Query, ev.Match.Signature())
							acc[ev.Query] = d
						}
					}
				}
				mu.Lock()
				for q, d := range acc {
					o := out[c][q]
					o.merge(d)
					out[c][q] = o
				}
				mu.Unlock()
			}
		}(g, qs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verdict compares delivered per-query digests with the reference over the
// queries in scope. It returns the number of matches the reference expects
// and a description of every query whose delivered multiset differs: a
// missing, extra or duplicated match each shows as a differing digest.
func verdict(delivered, ref map[string]digest, scope []string) (expected uint64, diffs []string) {
	for _, q := range scope {
		d, r := delivered[q], ref[q]
		expected += r.Count
		if d != r {
			diffs = append(diffs, fmt.Sprintf("%s: delivered %d matches (digest %016x), reference %d (digest %016x)",
				q, d.Count, d.Sum, r.Count, r.Sum))
		}
	}
	sort.Strings(diffs)
	return expected, diffs
}

func joinDiffs(d []string) string {
	if len(d) > 8 {
		d = append(d[:8:8], fmt.Sprintf("... and %d more", len(d)-8))
	}
	return strings.Join(d, "; ")
}
