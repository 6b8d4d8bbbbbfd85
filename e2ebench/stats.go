package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two values, so the tail
// reported is the highest one the sample actually supports.
const tailMin = 10

// tailCandidates are the tail percentiles tried, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// the smallest rank with at least p% of the sample at or below it. The
// tolerance keeps p·n that is whole in decimal (99.9% of 10000) from
// rounding up a rank in binary floating point.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// summary is a sample's median and its highest supported tail.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_pct"` // 0 when no tail percentile is supported
	Tail   float64 `json:"tail"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	sorted []float64
}

// summarize sorts a copy of xs and picks the highest percentile from
// tailCandidates that has at least tailMin samples strictly beyond its
// nearest rank. Without one, the tail falls back to the median.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), sorted: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(s.sorted)
	s.P50 = percentile(s.sorted, 50)
	s.Tail = s.P50
	s.Max = s.sorted[len(s.sorted)-1]
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(len(xs))
	for _, p := range tailCandidates {
		rank := nearestRank(p, len(xs))
		if len(xs)-rank >= tailMin {
			s.TailP, s.Tail = p, s.sorted[rank-1]
			break
		}
	}
	return s
}

// median is the nearest-rank median (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs).P50
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Time }

// coveredWithin returns how much of [parent.start, parent.end) the
// union of the children covers. Children may overlap each other (grid
// cells run concurrently under one grid span) and may stick out of the
// parent; overlaps count once and the parts outside the parent do not
// count.
func coveredWithin(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			covered += cur.end.Sub(cur.start)
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return covered
}

// selfTime is a span's duration minus the union of its children's
// intervals.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - coveredWithin(parent, children)
}
