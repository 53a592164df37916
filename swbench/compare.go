package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// compareMain reads two sets of runs recorded with --out, the parent's and
// the change's, and prints for each workload and end-to-end metric each
// side's median and quartiles and a verdict:
//
//   - win: the change is better in at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile spread;
//   - no win: it would be a win, but the change has an incorrect run or
//     fails a larger share of its operations than the parent;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, and not
//     every change run beats every parent run;
//   - within bound: otherwise.
//
// Correct runs pair up by workload and seed; repeated runs of one seed pair
// in the order they were recorded.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: swbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
	}
	defs, err := loadDefs(*bench)
	if err != nil {
		return err
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var workloads []string
	for w := range parent {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return errors.New("no workload has runs on both sides")
	}
	for _, w := range workloads {
		p, c := parent[w], change[w]
		fmt.Printf("# %s: parent %d runs, %d incorrect, failed/attempted %.4g; change %d runs, %d incorrect, failed/attempted %.4g\n",
			w, len(p.runs)+p.incorrect, p.incorrect, p.failRatio(), len(c.runs)+c.incorrect, c.incorrect, c.failRatio())
	}
	fmt.Printf("%-20s %-16s %5s  %-30s %-30s %-7s %s\n", "workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, w := range workloads {
		refuse := refusal(parent[w], change[w])
		for _, d := range defs.EndToEnd {
			p, c := pairs(parent[w], change[w], d.Name)
			if len(p) == 0 {
				continue
			}
			v := judge(d, p, c, refuse)
			fmt.Printf("%-20s %-16s %5d  %-30s %-30s %3d/%-3d %s\n", w, d.Name, len(p),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.pq[0], v.pq[1], v.pq[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.cq[0], v.cq[1], v.cq[2]),
				v.wins, len(p), v.verdict)
		}
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDefs is the metric catalogue of the benchmark definition.
type benchDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefs(path string) (*benchDefs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDefs
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// side is one side's untraced runs of one workload: the correct ones in the
// order recorded, and the count of incorrect ones and the operations of all.
type side struct {
	runs              []*result
	incorrect         int
	attempted, failed int
}

func (s *side) failRatio() float64 { return float64(s.failed) / float64(max(s.attempted, 1)) }

// readRecords groups the untraced runs by workload.
func readRecords(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		r := new(result)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		if !r.Correct {
			s.incorrect++
			continue
		}
		s.runs = append(s.runs, r)
	}
	return out, sc.Err()
}

// refusal says why the change may not win on a workload, or is empty: a
// gain does not count when the change gets a match set wrong, or fails more
// of its operations than the parent.
func refusal(p, c *side) string {
	switch {
	case c.incorrect > 0:
		return fmt.Sprintf("%d incorrect runs", c.incorrect)
	case c.failRatio() > p.failRatio():
		return fmt.Sprintf("failed/attempted %.4g > parent's %.4g", c.failRatio(), p.failRatio())
	}
	return ""
}

// pairs returns the metric's values on both sides for every seed run on
// both, in seed order; the k-th run of a seed on one side pairs with the
// k-th on the other.
func pairs(p, c *side, name string) (pv, cv []float64) {
	bySeed := func(s *side) map[int64][]*result {
		m := map[int64][]*result{}
		for _, r := range s.runs {
			m[r.Seed] = append(m[r.Seed], r)
		}
		return m
	}
	ps, cs := bySeed(p), bySeed(c)
	var seeds []int64
	for s := range ps {
		if _, ok := cs[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		for k := 0; k < min(len(ps[s]), len(cs[s])); k++ {
			a, okA := ps[s][k].Metrics[name]
			b, okB := cs[s][k].Metrics[name]
			if okA && okB {
				pv = append(pv, a.Value)
				cv = append(cv, b.Value)
			}
		}
	}
	return pv, cv
}

type judgement struct {
	pq, cq  [3]float64
	wins    int
	verdict string
}

// judge applies the comparison rule to paired values of one metric; a
// non-empty refuse turns a win into "no win".
func judge(d metricDef, p, c []float64, refuse string) judgement {
	var j judgement
	j.pq[0], j.pq[1], j.pq[2] = quartiles(p)
	j.cq[0], j.cq[1], j.cq[2] = quartiles(c)
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range p {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	spread := j.pq[2] - j.pq[0]
	diff := j.cq[1] - j.pq[1]
	worse := diff
	if d.Better == "higher" {
		worse = -diff
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case 10*j.wins >= 9*len(p) && abs(diff) > spread && refuse != "":
		j.verdict = "no win: " + refuse
	case 10*j.wins >= 9*len(p) && abs(diff) > spread:
		j.verdict = "win"
	case worse > d.Bound*abs(j.pq[1]):
		j.verdict = "regression"
	case spread > d.Bound*abs(j.pq[1]) && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "within bound"
	}
	return j
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
