package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples rests on two values and does not repeat.
const minTail = 10

// quantile returns the p-quantile of sorted values by the nearest-rank rule
// (the smallest value with at least p of the samples at or below it).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples. The
// epsilon keeps p*n from landing one rank high on float error (0.9*100).
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

// beyond counts the samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile reports the highest of want, 0.9 and 0.5 that has at least
// minTail samples beyond it, and its value. ok is false when not even the
// median qualifies.
func tailPercentile(samples []float64, want float64) (value, p float64, ok bool) {
	s := sortedCopy(samples)
	for _, cand := range []float64{want, 0.9, 0.5} {
		if cand > want {
			continue
		}
		if beyond(len(s), cand) >= minTail {
			return quantile(s, cand), cand, true
		}
	}
	return math.NaN(), 0, false
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop send schedule: batch i is due at start+i*every,
// whether or not earlier batches went out on time. Latency is measured from
// the due time, so a stall in the sender or the system charges every batch
// it delays, not only the first.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// run sends n batches on the schedule. send is called no earlier than each
// batch's due time; lateness records how far behind the schedule each call
// began. now and sleep are the clock.
func (s schedule) run(n int, now func() time.Time, sleep func(time.Duration), send func(i int)) (lateness []float64) {
	lateness = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := s.due(i)
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		lateness = append(lateness, ms(now().Sub(due)))
		send(i)
	}
	return lateness
}

// digest is an order-independent summary of a multiset of matches: the
// count and the wrapping sum of a 64-bit hash of each (query, signature).
// A missing, extra or duplicated match changes the count; a match swapped
// for another changes the sum.
type digest struct {
	Count uint64
	Sum   uint64
}

func matchHash(query, signature string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(query))
	h.Write([]byte{0x1f})
	h.Write([]byte(signature))
	// splitmix64 finaliser: spreads FNV's low-entropy high bits so that
	// sums of related keys do not collide.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (d *digest) add(query, signature string) {
	d.Count++
	d.Sum += matchHash(query, signature)
}

func (d *digest) merge(o digest) {
	d.Count += o.Count
	d.Sum += o.Sum
}
