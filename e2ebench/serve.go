package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
)

// serve-mixed: bccd with a store primed during set-up, under an
// open-loop mix at a fixed rate, then a search for the highest rate that
// meets the SLO. A warm request costs no simulation (admission, envelope
// verify, decode, render, flush); the cold sweeps compute and fsync 40
// cells each; both share the cores and the client's connections, so a
// read-path gain that costs writes, or the reverse, shows here.
//
// The mix is the repository's own serving mix, bccload's default
// report=4,sweep=1 (also the Makefile's load-smoke and chaos traffic),
// with one sweep in coldEvery cold: a fresh seed whose cells bccd
// computes and stores. The rate is the one at which warm bccd was
// measured answering reports in 0.8 ms and sweeps in 2.4 ms (p50, 2
// cores) when this workload was chosen; it refused with 429s only from
// 800 requests/s.
const (
	// baseRate is the fixed rate of the measured phase, requests/s.
	baseRate = 200.0
	// reportWeight:sweepWeight is the report to sweep ratio.
	reportWeight, sweepWeight = 4, 1
	// coldEvery: one sweep in coldEvery has a fresh seed.
	coldEvery = 10
	// sloMS is the latency limit on the warm requests' tail.
	sloMS = 25.0
	// lagBoundMS bounds how late the generator may send (p99): beyond
	// it a window measured the generator, not bccd. fixedAttempts windows
	// are tried before the run is reported invalid.
	lagBoundMS    = 25.0
	fixedAttempts = 3
	// The SLO search bisects [searchLow, searchHigh] × baseRate on a log
	// scale with searchProbes probes sharing searchShare of the run, each
	// at least probeMin requests so the warm p99 has tailMin samples
	// beyond it; the fixed-rate phase has fixedShare of the run.
	searchLow    = 0.5
	searchHigh   = 4.0
	searchProbes = 3
	searchShare  = 0.3
	fixedShare   = 0.6
	probeMin     = 1100
	// tailWindows consecutive parts of the fixed-rate phase each give a
	// warm p99 (each part holds over 1000 warm requests).
	tailWindows = 3
	// serveSetups bccd start-ups are measured for setup_s.
	serveSetups = 5
	// The traced phase lasts at most traceWindow seconds so its spans
	// fit bccd's ring of traceBuffer spans; traceSample traces per kind
	// are fetched from it.
	traceWindow = 4.0
	traceBuffer = 1 << 16
	traceSample = 40
	// stderrCap bytes of a bccd's standard error are kept.
	stderrCap = 4 << 20
)

type kind int

const (
	kindReport kind = iota // warm /v1/report?only=E13
	kindHit                // warm /v1/sweeps?grid=E17
	kindMiss               // cold /v1/sweeps?grid=E17 with a fresh seed
)

var kindNames = [...]string{"report", "hit", "miss"}

// cappedBuffer keeps the first stderrCap bytes written to it.
type cappedBuffer struct{ bytes.Buffer }

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if room := stderrCap - b.Len(); room > 0 {
		b.Buffer.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

// bccdProc is one bccd subprocess.
type bccdProc struct {
	cmd     *exec.Cmd
	base    string
	stderr  cappedBuffer // read only once exited is closed
	exited  chan struct{}
	waitErr error
	client  *http.Client // control requests; not the load generator's
}

// startBccd starts bccd on a fresh cache dir and waits until /readyz
// answers 200.
func startBccd(ctx context.Context, bin, dir string, traceBuf int, gctrace bool) (*bccdProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-mixed needs -bccd")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &bccdProc{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second},
	}
	p.cmd = exec.Command(bin, "-addr", addr, "-cache-dir", dir,
		"-parallel", strconv.Itoa(runtime.NumCPU()), "-trace-buffer", strconv.Itoa(traceBuf))
	p.cmd.Env = os.Environ()
	if gctrace {
		p.cmd.Env = append(p.cmd.Env, "GODEBUG=gctrace=1")
	}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := p.client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("bccd exited before becoming ready: %v\n%s", p.waitErr, p.stderr.String())
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("bccd did not become ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for bccd to exit (killing it after a grace
// period) and returns its peak RSS in MB.
func (p *bccdProc) stop() float64 {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

// get is a control request: status, X-Cache-State and body.
func (p *bccdProc) get(path string) (int, string, []byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache-State"), body, err
}

func reportPath(seed int64) string { return fmt.Sprintf("/v1/report?only=E13&quick=1&seed=%d", seed) }
func sweepPath(seed int64) string  { return fmt.Sprintf("/v1/sweeps?grid=E17&quick=1&seed=%d", seed) }

// expectSweep renders the quick E17 grid for seed in-process, through an
// uncached engine: the body every /v1/sweeps answer for that seed must
// equal byte for byte.
func expectSweep(ctx context.Context, eng *engine.Engine, seed int64) ([]byte, error) {
	grid, ok := eng.LookupGrid("E17")
	if !ok {
		return nil, fmt.Errorf("grid E17 is not registered")
	}
	res, err := eng.RunGrid(ctx, grid, engine.Config{Quick: true, Seed: seed}, nil, nil)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := res.WriteMarkdown(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// served is one primed bccd with the warm bodies it must keep serving.
type served struct {
	*bccdProc
	report, sweep []byte
}

// setupServe starts bccd on a fresh store and primes it with the warm
// kinds' two requests. The returned duration is start → ready: priming
// is a cold sweep and a cold report, whose cost cold_ms already covers.
func setupServe(ctx context.Context, opt options, dir string, seed int64, traceBuf int) (*served, time.Duration, error) {
	start := time.Now()
	// In a traced run every bccd logs its GC cycles, so the untraced
	// and the traced one differ only in tracing.
	p, err := startBccd(ctx, opt.bccd, dir, traceBuf, opt.trace)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	for _, path := range []string{reportPath(seed), sweepPath(seed)} {
		code, state, body, err := p.get(path)
		if err == nil && (code != http.StatusOK || state != "miss") {
			err = fmt.Errorf("priming %s: status %d, X-Cache-State %q: %.200s", path, code, state, body)
		}
		if err != nil {
			p.stop()
			return nil, 0, err
		}
	}
	s := &served{bccdProc: p}
	for _, b := range []*[]byte{&s.report, &s.sweep} {
		path := reportPath(seed)
		if b == &s.sweep {
			path = sweepPath(seed)
		}
		code, state, body, err := p.get(path)
		if err == nil && (code != http.StatusOK || state != "hit") {
			err = fmt.Errorf("warm %s: status %d, X-Cache-State %q", path, code, state)
		}
		if err != nil {
			p.stop()
			return nil, 0, err
		}
		*b = body
	}
	return s, took, nil
}

// request is one scheduled request: its kind, its grid seed and when it
// is due, relative to the phase start.
type request struct {
	kind kind
	seed int64
	at   time.Duration
}

// response is what the generator observed for one request.
type response struct {
	due, sent, header, done time.Time
	status                  int
	cache, traceID          string
	body                    []byte // kept for cold sweeps, verified after the run
	err                     error
}

func (r *response) latencyMS() float64 { return ms(r.done.Sub(r.due).Seconds()) }

// phase is one open-loop run of a schedule.
type phase struct {
	reqs    []request
	resps   []response
	lagMS   []float64 // how late the generator sent each request
	backlog int       // requests due but not yet sent when the schedule ended
}

// mixer draws request schedules from the workload seed.
type mixer struct {
	rng      *rand.Rand
	seed     int64 // the warm kinds' grid seed
	nextMiss int64
}

// schedule returns n requests at a fixed rate in a shuffled mix with
// exact kind counts; every cold sweep gets a seed no request used before.
func (m *mixer) schedule(rate float64, n int) []request {
	sweeps := int(math.Round(float64(n) * sweepWeight / (reportWeight + sweepWeight)))
	misses := int(math.Round(float64(sweeps) / coldEvery))
	reqs := make([]request, n)
	for i := range reqs {
		switch {
		case i < misses:
			reqs[i].kind = kindMiss
		case i < sweeps:
			reqs[i].kind = kindHit
		default:
			reqs[i].kind = kindReport
		}
	}
	m.rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		reqs[i].at = time.Duration(float64(i) / rate * float64(time.Second))
		reqs[i].seed = m.seed
		if reqs[i].kind == kindMiss {
			reqs[i].seed = m.nextMiss
			m.nextMiss++
		}
	}
	return reqs
}

// loadgen is the open-loop generator: one dispatcher queues each
// request at its due time, and one worker per keep-alive connection
// takes them from the queue in due order, whatever their kind. A warm
// request due while every connection carries a cold sweep waits for
// one, as it would behind any client with that many connections.
// Latency counts from the due time, so a stall also charges the
// requests queued behind it.
type loadgen struct {
	base   string
	conns  int
	client *http.Client
}

func newLoadgen(base string) *loadgen {
	conns := runtime.NumCPU()
	return &loadgen{base: base, conns: conns, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (lg *loadgen) path(r request) string {
	if r.kind == kindReport {
		return reportPath(r.seed)
	}
	return sweepPath(r.seed)
}

func (lg *loadgen) run(ctx context.Context, reqs []request) *phase {
	ph := &phase{reqs: reqs, resps: make([]response, len(reqs)), lagMS: make([]float64, len(reqs))}
	// One slot per request, so the dispatcher never blocks.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lg.do(ctx, reqs[i], &ph.resps[i])
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.resps[i].due = due
		ph.lagMS[i] = ms(time.Since(due).Seconds())
		queue <- i
	}
	ph.backlog = len(queue)
	close(queue)
	wg.Wait()
	return ph
}

func (lg *loadgen) do(ctx context.Context, r request, out *response) {
	out.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+lg.path(r), nil)
	if err != nil {
		out.err = err
		return
	}
	resp, err := lg.client.Do(req)
	out.header = time.Now()
	if err != nil {
		out.err, out.done = err, out.header
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	out.status, out.err = resp.StatusCode, err
	out.cache = resp.Header.Get("X-Cache-State")
	out.traceID = resp.Header.Get("X-Trace-Id")
	out.body = body
}

// check applies the per-response gate and returns the reason a response
// is wrong ("" when it is right). Warm bodies must equal the primed
// ones; cold-sweep bodies are compared in-process after the run.
func (s *served) check(r request, resp *response) string {
	want := "hit"
	if r.kind == kindMiss {
		want = "miss"
	}
	switch {
	case resp.err != nil:
		return fmt.Sprintf("%s: %v", kindNames[r.kind], resp.err)
	case resp.status != http.StatusOK:
		return fmt.Sprintf("%s: status %d: %.200s", kindNames[r.kind], resp.status, resp.body)
	case resp.cache != want:
		return fmt.Sprintf("%s: X-Cache-State %q, want %q", kindNames[r.kind], resp.cache, want)
	case r.kind == kindReport && !bytes.Equal(resp.body, s.report):
		return "warm report body differs from the primed one"
	case r.kind == kindHit && !bytes.Equal(resp.body, s.sweep):
		return "warm sweep body differs from the in-process rows"
	}
	return ""
}

// verdict checks every response of a phase, counting failures into out,
// keeps the cold-sweep bodies for verification, and drops the rest.
func (s *served) verdict(ph *phase, out *outcome, misses map[int64][]byte) int {
	failed := 0
	for i, r := range ph.reqs {
		resp := &ph.resps[i]
		out.attempted++
		if why := s.check(r, resp); why != "" {
			out.fail("%s", why)
			failed++
		}
		if r.kind == kindMiss && resp.err == nil {
			misses[r.seed] = resp.body
		}
		resp.body = nil
	}
	return failed
}

// window returns the k-th of n consecutive equal parts of the phase.
func (ph *phase) window(k, n int) *phase {
	lo, hi := k*len(ph.reqs)/n, (k+1)*len(ph.reqs)/n
	return &phase{reqs: ph.reqs[lo:hi], resps: ph.resps[lo:hi], lagMS: ph.lagMS[lo:hi]}
}

// latencies returns the latencies (ms) of the phase's responses of the
// given kinds.
func (ph *phase) latencies(kinds ...kind) []float64 {
	var xs []float64
	for i, r := range ph.reqs {
		for _, k := range kinds {
			if r.kind == k {
				xs = append(xs, ph.resps[i].latencyMS())
			}
		}
	}
	return xs
}

// split returns median time to first byte and body transfer time (ms)
// of one kind.
func (ph *phase) split(k kind) (ttfb, body float64) {
	var t, b []float64
	for i, r := range ph.reqs {
		if r.kind == k {
			t = append(t, ms(ph.resps[i].header.Sub(ph.resps[i].sent).Seconds()))
			b = append(b, ms(ph.resps[i].done.Sub(ph.resps[i].header).Seconds()))
		}
	}
	return median(t), median(b)
}

// probe is one rate of the SLO search and what it showed.
type probe struct {
	Rate     float64 `json:"rate"`
	OK       bool    `json:"ok"`
	WarmTail float64 `json:"warm_tail_ms"`
	TailPct  float64 `json:"warm_tail_pct"`
	Backlog  int     `json:"backlog"`
	LagTail  float64 `json:"lag_tail_ms"`
	Failed   int     `json:"failed"`
}

// searchRate finds the highest rate at which the warm requests' p99
// stays within sloMS, no request fails or is refused, no backlog builds
// up and the generator keeps its schedule. It bisects the rate on a
// log scale, then interpolates where the warm tail crosses sloMS
// between the highest passing and lowest failing probe (log latency
// over log rate), so the result is not quantized to the probe grid.
func searchRate(ctx context.Context, seconds float64, lg *loadgen, srv *served, mix *mixer, out *outcome, misses map[int64][]byte) (float64, []probe) {
	lo, hi := baseRate*searchLow, baseRate*searchHigh
	var probes []probe
	var pass, fail *probe
	for i := 0; i < searchProbes; i++ {
		rate := math.Sqrt(lo * hi)
		n := int(rate * seconds * searchShare / searchProbes)
		if n < probeMin {
			n = probeMin
		}
		ph := lg.run(ctx, mix.schedule(rate, n))
		failed := srv.verdict(ph, out, misses)
		warm, lag := summarize(ph.latencies(kindReport, kindHit)), summarize(ph.lagMS)
		p := probe{Rate: rate, WarmTail: warm.Tail, TailPct: warm.TailP, Backlog: ph.backlog, LagTail: lag.Tail, Failed: failed}
		// A backlog the rate drains within the SLO is momentary, not
		// building up.
		p.OK = failed == 0 && warm.Tail <= sloMS && float64(ph.backlog) <= rate*sloMS/1e3 && lag.Tail <= lagBoundMS
		probes = append(probes, p)
		if p.OK {
			lo, pass = rate, &probes[len(probes)-1]
		} else {
			hi, fail = rate, &probes[len(probes)-1]
		}
	}
	if pass == nil || fail == nil || fail.Failed > 0 || fail.WarmTail <= sloMS {
		return lo, probes
	}
	f := math.Log(sloMS/pass.WarmTail) / math.Log(fail.WarmTail/pass.WarmTail)
	return pass.Rate * math.Pow(fail.Rate/pass.Rate, f), probes
}

func runServe(ctx context.Context, opt options) (*outcome, error) {
	out := newOutcome()
	seed := gridSeed(opt.seed)
	wantDigest, recorded := serveDigests[seed]
	if !recorded {
		return nil, fmt.Errorf("serve-mixed: no digest recorded for grid seed %d", seed)
	}
	mix := &mixer{rng: rand.New(rand.NewPCG(uint64(opt.seed), 0x5e5e)), seed: seed, nextMiss: 1_000_000 + seed*100_000}
	ref := harness.NewEngine()
	wantSweep, err := expectSweep(ctx, ref, seed)
	if err != nil {
		return nil, err
	}

	// Set-up: several fresh starts, keeping the last one.
	var setups []float64
	var srv *served
	setupRuns := serveSetups
	if opt.trace {
		setupRuns = 1
	}
	for i := 0; i < setupRuns; i++ {
		s, took, err := setupServe(ctx, opt, filepath.Join(opt.workdir, fmt.Sprint("cache-", i)), seed, 0)
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if srv != nil {
			srv.stop()
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	if !bytes.Equal(srv.sweep, wantSweep) {
		out.fail("warm sweep body differs from the in-process RunGrid rows for seed %d", seed)
	}
	if got := rowsDigest(markdownRows(srv.report), markdownRows(srv.sweep)); got != wantDigest {
		out.fail("warm rows digest %s, recorded at the parent commit %s (grid seed %d)", got, wantDigest, seed)
	}
	out.checks["row_digest"] = wantDigest

	lg := newLoadgen(srv.base)
	misses := map[int64][]byte{}
	// Warm-up: connections, bccd's lazy state, the page cache.
	warmup := lg.run(ctx, mix.schedule(baseRate, int(baseRate)))
	srv.verdict(warmup, out, misses)

	measure := opt.seconds * fixedShare
	// The fixed-rate phase. A window in which the generator itself fell
	// behind measured the generator; it is discarded and measured again,
	// and a run without a valid window is invalid.
	var fixed *phase
	var invalid []float64
	for attempt := 1; ; attempt++ {
		fixed = lg.run(ctx, mix.schedule(baseRate, int(baseRate*measure)))
		srv.verdict(fixed, out, misses)
		lag := summarize(fixed.lagMS)
		out.samples["lag_ms"] = lag
		if lag.Tail <= lagBoundMS {
			break
		}
		invalid = append(invalid, lag.Tail)
		out.checks["invalid_windows_lag_ms"] = invalid
		if attempt == fixedAttempts {
			return nil, errInvalid{fmt.Sprintf("in %d windows the generator sent p%g up to %.2f ms late (bound %g ms)",
				attempt, lag.TailP, lag.Tail, lagBoundMS)}
		}
	}
	hit := summarize(fixed.latencies(kindHit))
	warm := summarize(fixed.latencies(kindReport, kindHit))
	miss := summarize(fixed.latencies(kindMiss))
	rep := summarize(fixed.latencies(kindReport))
	out.samples["hit_ms"], out.samples["warm_ms"], out.samples["miss_ms"], out.samples["report_ms"] = hit, warm, miss, rep
	out.samples["setup_s"] = summarize(setups)
	out.metrics["setup_s"] = median(setups)
	out.metrics["latency_ms"] = hit.P50
	out.metrics["client.cold_ms"] = miss.P50
	out.metrics["client.warm_p50_ms"] = hit.P50
	// The tail is the median of the three thirds' tails, so a burst of
	// CPU steal in one third moves one of three.
	var tails []float64
	for k := 0; k < tailWindows; k++ {
		w := summarize(fixed.window(k, tailWindows).latencies(kindReport, kindHit))
		tails = append(tails, w.Tail)
		out.checks["warm_tail_pct"] = w.TailP
	}
	out.samples["warm_tail_ms"] = summarize(tails)
	out.metrics["client.warm_p99_ms"] = median(tails)

	rate, probes := searchRate(ctx, opt.seconds, lg, srv, mix, out, misses)
	out.checks["slo_probes"] = probes
	out.metrics["client.max_rps_at_slo"] = rate

	if opt.trace {
		if err := traceServe(ctx, opt, out, srv, fixed, mix, misses); err != nil {
			return nil, err
		}
	}

	// Cold sweeps: every body must equal the in-process rows for its seed.
	for seed, body := range misses {
		want, err := expectSweep(ctx, ref, seed)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(body, want) {
			out.fail("cold sweep body for seed %d differs from the in-process RunGrid rows", seed)
		}
	}
	out.checks["cold_sweeps_verified"] = len(misses)
	stopped = true
	out.metrics["peak_rss_mb"] = srv.stop()
	if opt.trace {
		out.metrics["runtime.gc_pause_s"], out.metrics["runtime.heap_peak_mb"] = parseGCTrace(srv.stderr.String())
	}
	return out, nil
}
