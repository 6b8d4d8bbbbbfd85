package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"bcclique/internal/results"
)

// traceServe fills serve-mixed's per-layer metrics. Client-side figures
// and store counters come from the untraced phase already run on srv;
// span figures from a second, traced bccd under the same fixed rate,
// whose trace of each sampled request is read back from /v1/traces.
func traceServe(ctx context.Context, opt options, out *outcome, srv *served, fixed *phase, mix *mixer, misses map[int64][]byte) error {
	m := out.metrics
	rep := summarize(fixed.latencies(kindReport))
	m["client.report_p50_ms"], m["client.report_p99_ms"] = rep.P50, rep.Tail
	m["client.miss_tail_ms"] = summarize(fixed.latencies(kindMiss)).Tail
	m["client.report_ttfb_ms"], m["client.report_body_ms"] = fixed.split(kindReport)
	m["client.hit_ttfb_ms"], m["client.hit_body_ms"] = fixed.split(kindHit)
	m["client.miss_ttfb_ms"], m["client.miss_body_ms"] = fixed.split(kindMiss)
	m["loadgen.lag_p99_ms"] = summarize(fixed.lagMS).Tail
	m["loadgen.sent"] = float64(len(fixed.reqs))

	var health struct{ Cache results.Stats }
	if err := srv.getJSON("/healthz", &health); err != nil {
		return err
	}
	st := health.Cache
	lookups := st.Hits + st.Misses + st.Shared
	m["results.hit_ratio"] = ratio64(st.Hits+st.Shared, lookups)
	m["results.lookups"] = float64(lookups)
	m["results.retries"] = float64(st.Retries)
	m["results.quarantined"] = float64(st.Quarantined)
	rejected, err := srv.rejected()
	if err != nil {
		return err
	}
	m["serving.rejected"] = float64(rejected)

	// The traced phase, on a bccd started like srv but with tracing on,
	// so trace.overhead_frac compares like with like.
	tsrv, _, err := setupServe(ctx, opt, filepath.Join(opt.workdir, "cache-traced"), mix.seed, traceBuffer)
	if err != nil {
		return err
	}
	defer tsrv.stop()
	lg := newLoadgen(tsrv.base)
	window := opt.seconds * 0.4
	if window > traceWindow {
		window = traceWindow
	}
	traced := lg.run(ctx, mix.schedule(baseRate, int(baseRate*window)))
	tsrv.verdict(traced, out, misses)
	untracedHit := summarize(fixed.latencies(kindHit)).P50
	m["trace.overhead_frac"] = summarize(traced.latencies(kindHit)).P50/untracedHit - 1

	aggs := map[kind]*layerAgg{kindReport: newLayerAgg(), kindHit: newLayerAgg(), kindMiss: newLayerAgg()}
	for k, agg := range aggs {
		var ids []string
		for i, r := range traced.reqs {
			if r.kind == k && traced.resps[i].traceID != "" {
				ids = append(ids, traced.resps[i].traceID)
			}
		}
		// An even sample across the window; the oldest traces may have
		// lost spans to the ring, and add skips those whole.
		step := 1
		if len(ids) > traceSample {
			step = len(ids) / traceSample
		}
		for i := 0; i < len(ids); i += step {
			spans, err := tsrv.trace(ids[i])
			if err != nil {
				return err
			}
			agg.add(spans)
		}
		if agg.traces == 0 {
			return fmt.Errorf("no complete %s trace among %d sampled", kindNames[k], len(ids))
		}
	}
	out.checks["traces"] = map[string]int{
		"report": aggs[kindReport].traces, "hit": aggs[kindHit].traces, "miss": aggs[kindMiss].traces,
	}

	hits, cold := aggs[kindHit], aggs[kindMiss]
	perHit := func(name string) float64 {
		return (hits.self[name] + aggs[kindReport].self[name]).Seconds() / float64(hits.traces+aggs[kindReport].traces)
	}
	perMiss := func(name string) float64 { return cold.self[name].Seconds() / float64(cold.traces) }
	m["results.get_s"] = perHit("store.get")
	m["results.gets"] = float64(hits.count["store.get"]+aggs[kindReport].count["store.get"]) / float64(hits.traces+aggs[kindReport].traces)
	m["results.put_s"] = perMiss("store.put")
	m["results.puts"] = float64(cold.count["store.put"]) / float64(cold.traces)
	m["bcc.assemble_s"] = perMiss("assemble")
	m["bcc.rounds_s"] = perMiss("rounds")
	m["bcc.bind_s"] = perMiss("bind")
	m["bcc.rounds"] = cold.rounds / float64(cold.traces)
	m["bcc.bits"] = cold.bits / float64(cold.traces)
	m["bcc.bit_plane_share"] = ratio(cold.bitPlane, cold.runs)
	m["family.build_s"] = perMiss("generate")
	m["family.builds"] = float64(cold.count["generate"]) / float64(cold.traces)
	m["protocol.run_s"] = perMiss("run")
	m["protocol.correct_frac"] = 1 - ratio(cold.bad, cold.protoRuns)
	m["engine.cell_busy_s"] = cold.dur["cell"].Seconds() / float64(cold.traces)
	m["engine.cell_exec"] = float64(cold.count["cell"]) / float64(cold.traces) // a fresh seed computes every cell

	var self time.Duration
	var n int
	for _, a := range aggs {
		self += a.unattributed
		n += a.traces
	}
	m["bccd.http_self_s"] = self.Seconds() / float64(n)
	m["bccd.unattributed_frac"] = (hits.unattributed + aggs[kindReport].unattributed).Seconds() /
		(hits.rootTotal + aggs[kindReport].rootTotal).Seconds()
	out.checks["self_s_per_hit"] = selfTable(hits, float64(hits.traces))
	out.checks["self_s_per_miss"] = selfTable(cold, float64(cold.traces))
	return nil
}

// getJSON decodes a control endpoint's JSON answer.
func (p *bccdProc) getJSON(path string, v any) error {
	code, _, body, err := p.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, code)
	}
	return json.Unmarshal(body, v)
}

// rejected sums bccd's 429 answers from /metrics.
func (p *bccdProc) rejected() (int, error) {
	code, _, body, err := p.get("/metrics")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d", code)
	}
	total := 0
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "bccd_requests_total{") && strings.Contains(line, `code="429"`) {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return 0, fmt.Errorf("/metrics: %q: %v", line, err)
			}
			total += int(v)
		}
	}
	return total, sc.Err()
}

// trace reads one trace's spans from /v1/traces/{id}.
func (p *bccdProc) trace(id string) ([]span, error) {
	var recs []struct {
		TraceID    string         `json:"trace_id"`
		SpanID     string         `json:"span_id"`
		ParentID   string         `json:"parent_id"`
		Name       string         `json:"name"`
		Start      time.Time      `json:"start"`
		DurationUS float64        `json:"duration_us"`
		Attrs      map[string]any `json:"attrs"`
	}
	if err := p.getJSON("/v1/traces/"+id, &recs); err != nil {
		return nil, err
	}
	spans := make([]span, len(recs))
	for i, r := range recs {
		s := span{trace: r.TraceID, id: r.SpanID, parent: r.ParentID, name: r.Name, start: r.Start,
			dur: time.Duration(r.DurationUS * float64(time.Microsecond))}
		for k, v := range r.Attrs {
			if f, ok := v.(float64); ok {
				if s.nums == nil {
					s.nums = map[string]float64{}
				}
				s.nums[k] = f
			}
		}
		spans[i] = s
	}
	return spans, nil
}

// gcLine matches a GODEBUG=gctrace=1 line: the wall-clock phases (the
// first and third are stop-the-world) and the heap sizes in MB.
var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock.*? (\d+)->(\d+)->(\d+) MB`)

// parseGCTrace sums stop-the-world pause time (s) and finds the peak
// heap size (MB) in a gctrace log.
func parseGCTrace(log string) (pause, peakMB float64) {
	for _, line := range strings.Split(log, "\n") {
		g := gcLine.FindStringSubmatch(line)
		if g == nil {
			continue
		}
		a, _ := strconv.ParseFloat(g[1], 64) // the regexp admits only numbers
		b, _ := strconv.ParseFloat(g[2], 64)
		pause += (a + b) / 1e3
		for _, h := range g[3:5] {
			if v, _ := strconv.ParseFloat(h, 64); v > peakMB {
				peakMB = v
			}
		}
	}
	return pause, peakMB
}
