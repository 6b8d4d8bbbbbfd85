package main

import "time"

// span is one completed span, whichever side recorded it: the
// in-process tracer's obs.Record or a span of bccd's /v1/traces JSON.
type span struct {
	trace, id, parent, name string
	start                   time.Time
	dur                     time.Duration
	nums                    map[string]float64
}

func (s span) interval() interval { return interval{s.start, s.start.Add(s.dur)} }

// layerAgg accumulates, per span name, the summed self time, summed
// duration and count over complete traces, plus the counters the
// simulator and protocol layers attach as span attributes.
type layerAgg struct {
	self   map[string]time.Duration
	dur    map[string]time.Duration
	count  map[string]int
	traces int

	rounds, bits    float64
	runs, bitPlane  int // "rounds" spans, and those served by the bit plane
	protoRuns, bad  int // "run" spans, and those marked incorrect
	unattributed    time.Duration
	rootTotal       time.Duration
	skippedPartials int
}

func newLayerAgg() *layerAgg {
	return &layerAgg{
		self:  map[string]time.Duration{},
		dur:   map[string]time.Duration{},
		count: map[string]int{},
	}
}

// add folds one trace in. A trace whose root or some span's parent is
// missing (bccd's span ring evicts oldest first) is skipped whole, so
// a self time never counts a child's interval as its parent's own.
// The root span is the caller's (the benchmark's for in-process runs,
// the HTTP handler's for bccd) and is recorded under its own name.
func (a *layerAgg) add(spans []span) bool {
	byID := make(map[string]bool, len(spans))
	children := make(map[string][]interval, len(spans))
	roots := 0
	for _, s := range spans {
		byID[s.id] = true
	}
	for _, s := range spans {
		switch {
		case s.parent == "":
			roots++
		case !byID[s.parent]:
			a.skippedPartials++
			return false
		default:
			children[s.parent] = append(children[s.parent], s.interval())
		}
	}
	if roots != 1 {
		a.skippedPartials++
		return false
	}
	a.traces++
	for _, s := range spans {
		self := selfTime(s.interval(), children[s.id])
		a.self[s.name] += self
		a.dur[s.name] += s.dur
		a.count[s.name]++
		if s.parent == "" {
			a.unattributed += self
			a.rootTotal += s.dur
		}
		switch s.name {
		case "rounds":
			a.runs++
			a.rounds += s.nums["rounds"]
			a.bits += s.nums["total_bits"]
			if s.nums["bit_plane"] == 1 {
				a.bitPlane++
			}
		case "run":
			a.protoRuns++
			if s.nums["incorrect"] == 1 {
				a.bad++
			}
		}
	}
	return true
}

// addAll groups spans by trace and adds each trace.
func (a *layerAgg) addAll(spans []span) {
	byTrace := map[string][]span{}
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.trace]; !ok {
			order = append(order, s.trace)
		}
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	for _, id := range order {
		a.add(byTrace[id])
	}
}

// topSelf returns the span name with the largest summed self time,
// other than the trace root's.
func (a *layerAgg) topSelf(root string) string {
	best, bestName := time.Duration(-1), ""
	for name, v := range a.self {
		if name != root && (v > best || (v == best && name < bestName)) {
			best, bestName = v, name
		}
	}
	return bestName
}
