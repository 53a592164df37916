package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manual clock: sleep advances it, and so may the code under
// test.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestScheduleTimesFromScheduledSend(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sch := schedule{start: clk.now(), every: 10 * time.Millisecond}
	var sentAt []time.Time
	lateness := sch.run(4, clk.now, clk.sleep, func(i int) {
		sentAt = append(sentAt, clk.now())
		if i == 0 {
			// The first send stalls for three intervals.
			clk.advance(30 * time.Millisecond)
		}
	})
	// Batches 1 and 2 went out late because of the stall; batch 3 was on
	// time again.
	want := []float64{0, 20, 10, 0}
	for i, w := range want {
		if lateness[i] != w {
			t.Errorf("lateness[%d] = %v ms, want %v", i, lateness[i], w)
		}
	}
	// A match of batch 1 arriving 5 ms after the batch actually went out
	// is 25 ms late against its schedule: the stall is charged to it.
	arrival := sentAt[1].Add(5 * time.Millisecond)
	if got := ms(arrival.Sub(sch.due(1))); got != 25 {
		t.Errorf("latency from scheduled send = %v ms, want 25", got)
	}
	if got := ms(arrival.Sub(sentAt[1])); got == 25 {
		t.Errorf("actual and scheduled send coincide; the test does not separate them")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	cases := []struct {
		n      int
		want   float64 // percentile used
		ok     bool
		beyond int
	}{
		{n: 1000, want: 0.99, ok: true, beyond: 10},
		{n: 999, want: 0.9, ok: true, beyond: 99},
		{n: 100, want: 0.9, ok: true, beyond: 10},
		{n: 99, want: 0.5, ok: true, beyond: 49},
		{n: 20, want: 0.5, ok: true, beyond: 10},
		{n: 19, ok: false},
	}
	for _, c := range cases {
		v, p, ok := tailPercentile(seq(c.n), 0.99)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("n=%d: got p=%v ok=%v, want p=%v ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if b := beyond(c.n, p); b != c.beyond || b < minTail {
			t.Errorf("n=%d p=%v: %d samples beyond, want %d (>= %d)", c.n, p, b, c.beyond, minTail)
		}
		// Nearest rank: exactly `beyond` samples exceed the value.
		above := 0
		for _, x := range seq(c.n) {
			if x > v {
				above++
			}
		}
		if above != c.beyond {
			t.Errorf("n=%d: %d samples above the p%v value %v, want %d", c.n, above, p*100, v, c.beyond)
		}
	}
}

func TestDigestOrderIndependentAndExact(t *testing.T) {
	type m struct{ q, sig string }
	set := []m{{"smurf", "1:10,2:11"}, {"smurf", "1:12,2:13"}, {"worm", "1:10,2:11,3:14"}, {"news", "a"}}
	var fwd, rev digest
	for _, x := range set {
		fwd.add(x.q, x.sig)
	}
	for i := len(set) - 1; i >= 0; i-- {
		rev.add(set[i].q, set[i].sig)
	}
	if fwd != rev {
		t.Fatalf("digest depends on order: %+v vs %+v", fwd, rev)
	}
	mutate := map[string][]m{
		"missing":   set[1:],
		"extra":     append(append([]m(nil), set...), m{"news", "b"}),
		"duplicate": append(append([]m(nil), set...), set[2]),
		"swapped":   append(append([]m(nil), set[:3]...), m{"news", "b"}),
		// Same signature under another query is a different match.
		"query": append(append([]m(nil), set[:3]...), m{"worm", "a"}),
	}
	for name, ms := range mutate {
		var d digest
		for _, x := range ms {
			d.add(x.q, x.sig)
		}
		if d == fwd {
			t.Errorf("%s match not caught: digest %+v equals the reference", name, d)
		}
	}
	// verdict reports the differing query and only it.
	ref := map[string]digest{}
	del := map[string]digest{}
	for _, x := range set {
		r := ref[x.q]
		r.add(x.q, x.sig)
		ref[x.q] = r
		d := del[x.q]
		d.add(x.q, x.sig)
		del[x.q] = d
	}
	w := del["worm"]
	w.add("worm", "1:10,2:11,3:14") // delivered twice
	del["worm"] = w
	expected, diffs := verdict(del, ref, []string{"news", "smurf", "worm"})
	if expected != 4 || len(diffs) != 1 {
		t.Fatalf("verdict = %d expected, diffs %q; want 4 and one diff for worm", expected, diffs)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestChunkRates(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	marks := []mark{{at(100), 10}, {at(500), 10}, {at(1500), 30}, {at(2000), 30}, {at(2100), 5}}
	got := chunkRates(start, marks, 2)
	// Chunks of two requests; the fifth is left over. 20 edges over 0.5 s,
	// then 60 edges over the next 1.5 s.
	if len(got) != 2 || got[0] != 40 || got[1] != 40 {
		t.Fatalf("chunkRates = %v, want [40 40]", got)
	}
	if got := chunkRates(start, marks, 10); got != nil {
		t.Fatalf("more chunks than requests: got %v, want nil", got)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "throughput_eps", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	win := make([]float64, len(parent))
	worse := make([]float64, len(parent))
	for i, p := range parent {
		win[i] = p * 1.2
		worse[i] = p * 0.8
	}
	if v := judge(d, parent, win, "").verdict; v != "win" {
		t.Errorf("20%% faster everywhere: verdict %q, want win", v)
	}
	if v := judge(d, parent, worse, "").verdict; v != "regression" {
		t.Errorf("20%% slower everywhere: verdict %q, want regression", v)
	}
	if v := judge(d, parent, parent, "").verdict; v != "within bound" {
		t.Errorf("identical runs: verdict %q, want within bound", v)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(d, noisy, parent, "").verdict; v != "unresolved" {
		t.Errorf("parent spread wider than the bound: verdict %q, want unresolved", v)
	}
	if v := judge(d, parent, win, "1 incorrect runs").verdict; v != "no win: 1 incorrect runs" {
		t.Errorf("faster but refused: verdict %q, want no win", v)
	}
	if math.IsNaN(judge(d, parent, win, "").pq[1]) {
		t.Error("median is NaN")
	}
}

func TestCompareRefusesAndPairsRepeatedSeeds(t *testing.T) {
	run := func(seed int64, v float64, correct bool, failed int) *result {
		return &result{Workload: "w", Seed: seed, Correct: correct, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"m": {Value: v}}}
	}
	write := func(rs ...*result) string {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		for _, r := range rs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, err := readRecords(write(run(1, 10, true, 0), run(1, 11, true, 0), run(2, 12, true, 0)))
	if err != nil {
		t.Fatal(err)
	}
	change, err := readRecords(write(run(1, 20, true, 0), run(1, 21, true, 0), run(2, 22, false, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// Both runs of seed 1 pair, in order; the incorrect run is not paired.
	p, c := pairs(parent["w"], change["w"], "m")
	if fmt.Sprint(p, c) != "[10 11] [20 21]" {
		t.Errorf("pairs = %v %v, want [10 11] [20 21]", p, c)
	}
	if r := refusal(parent["w"], change["w"]); r != "1 incorrect runs" {
		t.Errorf("refusal with an incorrect change run = %q", r)
	}
	failing, err := readRecords(write(run(1, 20, true, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if r := refusal(parent["w"], failing["w"]); r == "" {
		t.Error("a change that fails more operations than the parent is not refused")
	}
	if r := refusal(parent["w"], parent["w"]); r != "" {
		t.Errorf("identical sides refused: %q", r)
	}
}

func TestSteadyStateGuardInProcess(t *testing.T) {
	s := newSession()
	s.engWarm.LiveEdges, s.engOpen.LiveEdges, s.engFinal.LiveEdges = 1000, 1100, 1050
	s.engFinal.ExpiredEdges = 5000
	if f := s.steadyState(); len(f) != 0 {
		t.Errorf("steady window flagged: %v", f)
	}
	// A window that never expires grows through both measured phases.
	s.engOpen.LiveEdges, s.engFinal.LiveEdges = 3000, 6000
	if f := s.steadyState(); len(f) != 1 || !strings.Contains(f[0], "kept growing") {
		t.Errorf("growing live edges not flagged: %v", f)
	}
	s.engFinal.ExpiredEdges = 0
	if f := s.steadyState(); len(f) != 2 {
		t.Errorf("no expiry not flagged: %v", f)
	}
}

func TestCatalogueUnitsAndAbsentMetrics(t *testing.T) {
	c := newCatalogue([]metricDef{{Name: "a", Unit: "ns"}, {Name: "b", Unit: "count"}})
	c.report("a", 3, 1, "")
	m := c.metrics()
	if m["a"] != (metric{3, "ns"}) || m["b"] != (metric{0, "count"}) {
		t.Errorf("metrics = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unlisted metric was accepted")
		}
	}()
	c.report("unlisted", 1, 1, "")
}

func TestSlicedPercentileIgnoresOneStalledSlice(t *testing.T) {
	slices := make([][]float64, latencySlices)
	for k := range slices {
		for i := 0; i < 200; i++ {
			v := float64(i % 100) // p90 of each slice is 89
			if k == 3 {
				v += 1000 // a stall slows every match of one slice
			}
			slices[k] = append(slices[k], v)
		}
	}
	v, p, n, ok := slicedPercentile(slices, 0.9, 0)
	if !ok || p != 0.9 || v != 89 || n != 200*latencySlices {
		t.Fatalf("slicedPercentile = %v (p%v, n=%d, ok=%v), want 89 at p90 over %d samples", v, p*100, n, ok, 200*latencySlices)
	}
	// One lost match is over every limit: the pooled samples are used.
	if v, _, _, _ := slicedPercentile(slices, 0.9, 400); !math.IsInf(v, 1) {
		t.Fatalf("with 400 lost matches the p90 = %v, want +Inf", v)
	}
	// A slice too small for p90 makes every slice fall back to the median.
	slices[0] = slices[0][:25]
	if _, p, _, ok := slicedPercentile(slices, 0.9, 0); !ok || p != 0.5 {
		t.Fatalf("fallback to p%v (ok=%v), want p50", p*100, ok)
	}
}
