package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {15, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}, {0, 1},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSummarizeReportsHighestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n           int
		tailP, tail float64
	}{
		{10, 0, 5},          // no tail has 10 samples beyond it: the median stands in
		{40, 75, 30},        // rank 30, 10 beyond
		{100, 90, 90},       // p95 would leave only 5 beyond
		{999, 95, 950},      // p99's rank 990 leaves 9 beyond
		{1000, 99, 990},     // exactly 10 beyond p99
		{10000, 99.9, 9990}, // exactly 10 beyond p99.9
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailP != c.tailP || s.Tail != c.tail {
			t.Errorf("n=%d: got n=%d p%g=%g, want p%g=%g", c.n, s.N, s.TailP, s.Tail, c.tailP, c.tail)
		}
		if beyond := c.n - int(c.tail); c.tailP > 0 && beyond < tailMin {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	if s := summarize(seq(7)); s.P50 != 4 || s.Max != 7 || s.Mean != 4 {
		t.Errorf("n=7: p50=%g max=%g mean=%g, want 4 7 4", s.P50, s.Max, s.Mean)
	}
}

// at builds an interval from millisecond offsets.
func at(startMS, endMS int) interval {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return interval{base.Add(time.Duration(startMS) * time.Millisecond), base.Add(time.Duration(endMS) * time.Millisecond)}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{at(0, 10), at(20, 30)}, 80 * time.Millisecond},
		{"concurrent, overlapping", []interval{at(10, 30), at(20, 50), at(40, 60)}, 50 * time.Millisecond},
		{"identical twins count once", []interval{at(10, 40), at(10, 40)}, 70 * time.Millisecond},
		{"nested", []interval{at(10, 90), at(20, 30)}, 20 * time.Millisecond},
		{"sticking out is clipped", []interval{at(-20, 10), at(90, 130)}, 80 * time.Millisecond},
		{"outside entirely", []interval{at(100, 150), at(-50, 0)}, 100 * time.Millisecond},
		{"unsorted", []interval{at(70, 80), at(0, 20), at(15, 25)}, 65 * time.Millisecond},
		{"covering", []interval{at(0, 60), at(50, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

// mk builds a span of a hand-made trace.
func mk(id, parent, name string, iv interval, nums map[string]float64) span {
	return span{trace: "t", id: id, parent: parent, name: name, start: iv.start, dur: iv.end.Sub(iv.start), nums: nums}
}

func TestLayerAggSelfTimesOfConcurrentCells(t *testing.T) {
	// A grid runs two cells at once on two workers; each cell builds its
	// family and runs rounds. The grid's own time is only what neither
	// cell covers.
	trace := []span{
		mk("root", "", "e2ebench", at(0, 100), nil),
		mk("g", "root", "grid", at(0, 100), nil),
		mk("c1", "g", "cell", at(5, 60), nil),
		mk("c2", "g", "cell", at(10, 90), nil),
		mk("gen1", "c1", "generate", at(5, 25), nil),
		mk("r1", "c1", "rounds", at(25, 55), map[string]float64{"rounds": 10, "total_bits": 100, "bit_plane": 1}),
		mk("gen2", "c2", "generate", at(10, 20), nil),
		mk("r2", "c2", "rounds", at(20, 90), map[string]float64{"rounds": 5, "total_bits": 50}),
	}
	a := newLayerAgg()
	if !a.add(trace) {
		t.Fatal("complete trace rejected")
	}
	want := map[string]time.Duration{
		"e2ebench": 0,
		"grid":     15 * time.Millisecond, // 100 - |[5,90)|
		"cell":     5 * time.Millisecond,  // c1: 55 - 50; c2: 80 - 80
		"generate": 30 * time.Millisecond,
		"rounds":   100 * time.Millisecond,
	}
	for name, d := range want {
		if a.self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, a.self[name], d)
		}
	}
	if a.count["cell"] != 2 || a.dur["cell"] != 135*time.Millisecond {
		t.Errorf("cells: count %d dur %v, want 2 and 135ms", a.count["cell"], a.dur["cell"])
	}
	if a.rounds != 15 || a.bits != 150 || a.runs != 2 || a.bitPlane != 1 {
		t.Errorf("counters: rounds %g bits %g runs %d bit plane %d", a.rounds, a.bits, a.runs, a.bitPlane)
	}
	if top := a.topSelf("e2ebench"); top != "rounds" {
		t.Errorf("top self = %q, want rounds", top)
	}

	// A trace that lost a span to the ring is skipped whole.
	partial := []span{trace[0], trace[1], trace[4]} // gen1's parent c1 is missing
	if a.add(partial) || a.traces != 1 || a.skippedPartials != 1 {
		t.Errorf("partial trace: traces %d skipped %d", a.traces, a.skippedPartials)
	}
}

func TestGCTraceParse(t *testing.T) {
	log := "bccd log line\n" +
		"gc 1 @0.012s 2%: 0.010+0.52+0.003 ms clock, 0.021+0.1/0.4/0+0.007 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"gc 2 @0.100s 3%: 0.100+1.0+0.900 ms clock, 0.2+0.1/0.4/0+0.007 ms cpu, 9->12->2 MB, 8 MB goal, 0 MB stacks, 0 MB globals, 2 P\n"
	pause, peak := parseGCTrace(log)
	if d := pause - 0.001013; d > 1e-12 || d < -1e-12 {
		t.Errorf("pause = %g s, want 0.001013", pause)
	}
	if peak != 12 {
		t.Errorf("peak = %g MB, want 12", peak)
	}
}
