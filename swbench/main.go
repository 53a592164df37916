// Command swbench is the StreamWorks benchmark: detection latency at a
// fixed offered rate, sustained edges/s and a per-layer breakdown, each in
// steady state, on two workloads.
//
//	swbench --workload news-served --seed 1 --seconds 30 --trace 0
//	swbench compare parent.jsonl change.jsonl
//
// Each run generates its inputs from the seed, sets the system up several
// times (setup_s is the median), replays one widest query window untimed,
// then measures two phases of --seconds/2 each: an open-loop phase at the
// workload's offered rate, timed from each batch's scheduled send, and a
// closed-loop phase with one request in flight. The delivered matches are
// checked against a reference computed afterwards by the single engine with
// per-query plans. With --trace 1 the run adds a session with the daemon's
// observability on and an in-process replay that times each layer; it
// prints the per-layer metrics instead of the end-to-end ones. The last
// line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "swbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload: news-served or many-queries-churn")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run, split evenly over the two phases")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		daemon   = flag.String("daemon", "", "streamworksd binary (served workloads)")
		work     = flag.String("work", ".bench_build/swbench", "scratch directory for data dirs, logs and spans")
		bench    = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the offered rates")
		out      = flag.String("out", "", "append the result, with the run's settings, as one JSON line to this file")
	)
	flag.Parse()
	res, err := run(*workload, *seed, *seconds, *trace == 1, *daemon, *work, *bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.public())
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
	}
	// A wrong match set is reported as "correct": false, not by the exit
	// code: the result line is the verdict.
	fmt.Println(string(line))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome; public() is the printed object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Env      map[string]string `json:"env"`
}

func (r *result) public() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func appendRecord(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(name string, seed int64, seconds int, traced bool, daemonBin, work, benchPath string) (*result, error) {
	sp, ok := specByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 2 {
		return nil, errors.New("--seconds must be at least 2")
	}
	if sp.served && daemonBin == "" {
		return nil, errors.New("--daemon is required for served workloads")
	}
	rate, err := offeredRate(benchPath, name)
	if err != nil {
		return nil, err
	}
	defs, err := loadDefs(benchPath)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	phase := time.Duration(seconds) * time.Second / 2

	g0 := time.Now()
	in, err := build(sp, seed, rate, phase)
	if err != nil {
		return nil, err
	}
	env := environment(seed, rate)
	fmt.Printf("# workload=%s seed=%d offered=%.0f edges/s phases=2x%s warm-up=%d edges (%s of stream) batch=%d\n",
		name, seed, rate, phase, in.warm, sp.window, sp.batch)
	fmt.Printf("# env: nproc=%s gomaxprocs=%s go=%s commit=%s\n", env["nproc"], env["gomaxprocs"], env["go"], env["commit"])
	fmt.Printf("# inputs: %d edges, %d queries, generated and encoded in %.2fs\n", in.total(), len(in.queries), time.Since(g0).Seconds())

	startSession := func(obsOn bool) (*session, error) {
		if sp.served {
			return runServed(daemonBin, work, sp, in, rate, phase, obsOn)
		}
		return runInproc(sp, in, rate, phase, obsOn)
	}
	var runs []*session
	s, err := startSession(false)
	if err != nil {
		return nil, err
	}
	runs = append(runs, s)
	if traced {
		t, err := startSession(true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t)
	}
	chk, err := check(sp, in, runs)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: seed, Trace: traced, Env: env, Correct: chk.correct,
		Attempted: chk.attempted, Failed: chk.failed}
	for _, line := range chk.notes {
		fmt.Println("# check:", line)
	}
	if !traced {
		c := newCatalogue(defs.EndToEnd)
		endToEnd(sp, s, chk.lost[0], c)
		res.Metrics = c.metrics()
	} else {
		tr := &tracer{base: time.Now()}
		ly, err := replay(sp, in, replayConfig(sp), work, tr)
		if err != nil {
			return nil, err
		}
		c := newCatalogue(defs.PerLayer)
		perLayer(sp, in, runs[0], runs[1], ly, c)
		res.Metrics = c.metrics()
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
	}
	return res, nil
}

// offeredRate reads the workload's offered rate from its line in the
// benchmark definition ("offered N edges/s" in its why).
func offeredRate(path, name string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading offered rates: %w", err)
	}
	var def struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	re := regexp.MustCompile(`offered ([0-9]+) edges/s`)
	for _, w := range def.Workloads {
		if w.Name == name {
			m := re.FindStringSubmatch(w.Why)
			if m == nil {
				return 0, fmt.Errorf("%s: workload %s states no offered rate", path, name)
			}
			return strconv.ParseFloat(m[1], 64)
		}
	}
	return 0, fmt.Errorf("%s: no workload %s", path, name)
}

func environment(seed int64, rate float64) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if c := os.Getenv("SWBENCH_COMMIT"); c != "" {
		commit = c
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       strconv.FormatInt(seed, 10),
		"offered":    strconv.FormatFloat(rate, 'f', 0, 64),
	}
}

// catalogue collects a run's metrics under the names and units the
// benchmark definition lists, and prints each with its sample count.
type catalogue struct {
	defs []metricDef
	m    map[string]metric
}

func newCatalogue(defs []metricDef) *catalogue {
	return &catalogue{defs: defs, m: map[string]metric{}}
}

// report records a listed metric; an unlisted name is a bug in the program.
func (c *catalogue) report(name string, value float64, n int, note string) {
	unit := ""
	for _, d := range c.defs {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic("swbench: metric " + name + " is not listed in the benchmark definition")
	}
	if math.IsInf(value, 1) {
		// A percentile that falls on a lost match: over every limit. JSON has
		// no infinity, so it is reported as a billion of the unit.
		value = 1e9
	}
	if math.IsNaN(value) {
		value = 0
	}
	c.m[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-36s %16.6g %-9s n=%d%s\n", name, value, unit, n, note)
}

// metrics returns every listed metric; those the run did not produce, on
// layers that do no work on the workload, read 0.
func (c *catalogue) metrics() map[string]metric {
	for _, d := range c.defs {
		if _, ok := c.m[d.Name]; !ok {
			c.report(d.Name, 0, 0, "no work on this workload")
		}
	}
	return c.m
}
