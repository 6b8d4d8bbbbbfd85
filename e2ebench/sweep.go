package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/results"
)

// sweepWorkload is an E17 restriction run in-process through
// engine.RunGrid.
type sweepWorkload struct {
	name      string
	protocols []string
	families  []string
	sizes     []int
	cells     int // expected cell count after the grid's size caps
}

// sweepWorkloads are the two in-process workloads.
//
// sweep-kt0-overflow: nearly all of the cold time is the "assemble"
// span of the er-threshold cell (kt0-exchange's word-overflow output
// epilogue); two-cycle runs the same protocol off that path, and
// rounds/generate are under 1%.
//
// sweep-ladder: assemble is about 0. rounds dominates the two-cycle
// cells (the bit plane and the multi-bit loop), generate dominates the
// grid cells, n ≥ 2048 crosses the intra-cell shard threshold, and 16
// cells of very unequal cost on few workers stress RunGrid's
// longest-first dispatch. sketch-a2 stops at its 2048 cap.
var sweepWorkloads = map[string]sweepWorkload{
	"sweep-kt0-overflow": {
		name:      "sweep-kt0-overflow",
		protocols: []string{"kt0-exchange"},
		families:  []string{"two-cycle", "er-threshold"},
		sizes:     []int{1024},
		cells:     2,
	},
	"sweep-ladder": {
		name:      "sweep-ladder",
		protocols: []string{"boruvka", "flood-b1", "sketch-a2"},
		families:  []string{"two-cycle", "grid"},
		sizes:     []int{1024, 2048, 4096},
		cells:     16,
	},
}

const (
	// coldIterations untraced iterations make every run, so latency_ms
	// is always the middle of three; a traced run adds one traced
	// iteration.
	coldIterations = 3
	// Each iteration gets an equal slot of the run. After its cold
	// RunGrid, warm calls fill the rest of the slot, and at least
	// warmMin of them are made.
	warmMin = 200
	// tracedWarm warm calls of a traced iteration give the per-warm-sweep
	// layer times.
	tracedWarm = 300
	// setupRuns fresh processes are timed for setup_s.
	setupRuns = 5
)

// sweepRig is one set-up: a fresh store, an engine over it, and the
// restricted grid.
type sweepRig struct {
	store *results.Store
	eng   *engine.Engine
	grid  engine.GridSpec
	cfg   engine.Config
}

func setupSweep(dir string, w sweepWorkload, seed int64, tracer *obs.Tracer) (*sweepRig, error) {
	disk, err := results.NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	// The same decoration bccd uses, so retries are counted alike.
	store := results.New(results.WithRetry(disk, results.DefaultRetryPolicy(), 1))
	opts := []engine.Option{engine.WithStore(store)}
	if tracer != nil {
		opts = append(opts, engine.WithTracer(tracer))
	}
	eng := harness.NewEngine(opts...)
	grid, ok := eng.LookupGrid("E17")
	if !ok {
		return nil, fmt.Errorf("grid E17 is not registered")
	}
	if grid, err = grid.Restrict(w.protocols, w.families, w.sizes); err != nil {
		return nil, err
	}
	cfg := engine.Config{Seed: seed}
	if n := len(grid.Cells(cfg)); n != w.cells {
		return nil, fmt.Errorf("%s: grid has %d cells, want %d", w.name, n, w.cells)
	}
	return &sweepRig{store: store, eng: eng, grid: grid, cfg: cfg}, nil
}

// timeSetups times n fresh processes of this binary that each set up
// the workload — process start, package initialisation, store open,
// engine.New (which hashes the executable for cache keys) and the grid
// restriction — and exit. That is the set-up a user pays per launch.
func timeSetups(opt options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", opt.workload, "-seed", fmt.Sprint(opt.seed),
			"-workdir", filepath.Join(opt.workdir, fmt.Sprint("setup-", i)))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return setups, nil
}

// gridRun is one timed RunGrid call and what its callbacks saw.
type gridRun struct {
	wall     time.Duration
	rows     [][]string
	computed int           // cells executed (cache misses)
	busy     time.Duration // summed Elapsed of executed cells
	tail     time.Duration // last cell finished → RunGrid returned
	sinkWait time.Duration // summed cell finished → row reached the sink
}

// runGrid times one RunGrid call. The only timers are around RunGrid
// itself and inside its onEvent and sink callbacks.
func (r *sweepRig) runGrid(ctx context.Context) (gridRun, error) {
	var (
		mu       sync.Mutex
		finished = map[string]time.Time{}
		last     time.Time
		out      gridRun
	)
	onEvent := func(ev engine.Event) {
		if ev.Kind != engine.EventDone && ev.Kind != engine.EventCached {
			return
		}
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		finished[ev.Cell] = now
		if now.After(last) {
			last = now
		}
		if ev.Kind == engine.EventDone {
			out.computed++
			out.busy += ev.Elapsed
		}
	}
	sink := func(c engine.GridCell, row []string) error {
		now := time.Now()
		mu.Lock()
		if t, ok := finished[c.String()]; ok {
			out.sinkWait += now.Sub(t)
		}
		mu.Unlock()
		out.rows = append(out.rows, row)
		return nil
	}
	start := time.Now()
	res, err := r.eng.RunGrid(ctx, r.grid, r.cfg, onEvent, sink)
	end := time.Now()
	if err != nil {
		return out, err
	}
	out.wall = end.Sub(start)
	mu.Lock()
	out.tail = end.Sub(last)
	mu.Unlock()
	if len(res.Tables) != 1 || !slices.EqualFunc(res.Tables[0].Rows, out.rows, slices.Equal[[]string]) {
		return out, fmt.Errorf("RunGrid table differs from the rows streamed to its sink")
	}
	return out, nil
}

// checkRows applies the per-row gate: every E17 row's correct column
// reads s/s for the cell's seed count.
func checkRows(grid engine.GridSpec, cfg engine.Config, rows [][]string) error {
	col := slices.Index(grid.Headers, "correct")
	if col < 0 {
		return fmt.Errorf("E17 has no correct column")
	}
	seeds := grid.SeedCount(cfg)
	want := fmt.Sprintf("%d/%d", seeds, seeds)
	for _, row := range rows {
		if row[col] != want {
			return fmt.Errorf("row %s: correct = %s, want %s", strings.Join(row[:3], ","), row[col], want)
		}
	}
	return nil
}

// heapSampler tracks the peak of live heap objects every 10 ms without
// stopping the world.
type heapSampler struct {
	peak       atomic.Uint64
	stop, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// resetPeakRSS returns this process's memory to the OS and restarts the
// kernel's resident-set high-water mark (VmHWM) from the current
// resident set, so peakRSSMB then reads the peak of what runs between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (MB).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runSweep measures a sweep workload: coldIterations iterations of
// set-up, a cold RunGrid on the fresh store, and warm RunGrid calls on
// the filled store until the iteration's share of opt.seconds is spent.
// A traced run ends with one traced iteration, so the tracing overhead
// and the per-layer spans come from the same run.
func runSweep(ctx context.Context, opt options, w sweepWorkload) (*outcome, error) {
	out := newOutcome()
	seed := gridSeed(opt.seed)
	want, recorded := sweepDigests[w.name][seed]
	if !recorded {
		return nil, fmt.Errorf("%s: no row digest recorded for grid seed %d", w.name, seed)
	}

	setups, err := timeSetups(opt, setupRuns)
	if err != nil {
		return nil, err
	}
	var (
		cold, coldTraced, warm []float64
		warmP50s, warmTails    []float64
		layers                 = newLayerAgg()
		warmLayers             = newLayerAgg()
		eng                    struct {
			busy, tail, sink, wall time.Duration
			computed, n            int
		}
		st storeCounts
	)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var heap *heapSampler
	if opt.trace {
		heap = startHeapSampler()
	}
	var rssPeaks []float64

	iterations := coldIterations
	if opt.trace {
		iterations++
	}
	slot := time.Duration(opt.seconds / float64(iterations) * float64(time.Second))
	runStart := time.Now()
	for i := 0; i < iterations; i++ {
		// Each iteration starts from a collected heap with its memory
		// returned to the OS, so its resident peak is its own.
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting the peak RSS: %w", err)
		}
		traced := i == coldIterations
		var tracer *obs.Tracer
		var rec *recorder
		if traced {
			tracer, rec = newRecorder()
		}
		rig, err := setupSweep(filepath.Join(opt.workdir, fmt.Sprint("store-", i)), w, seed, tracer)
		if err != nil {
			return nil, err
		}

		// Cold.
		before := rig.store.Stats()
		rctx, done := rec.root(ctx)
		out.attempted++
		gr, err := rig.runGrid(rctx)
		done()
		if err != nil {
			return nil, fmt.Errorf("cold RunGrid: %w", err)
		}
		coldRows := gr.rows
		if traced {
			coldTraced = append(coldTraced, gr.wall.Seconds())
			layers.addAll(rec.take())
		} else {
			cold = append(cold, gr.wall.Seconds())
		}
		eng.busy += gr.busy
		eng.tail += gr.tail
		eng.sink += gr.sinkWait
		eng.wall += gr.wall
		eng.computed += gr.computed
		eng.n++
		after := rig.store.Stats()
		st.coldPuts += after.Puts - before.Puts
		if err := checkRows(rig.grid, rig.cfg, coldRows); err != nil {
			out.fail("cold sweep: %v", err)
		}
		if got := rowsDigest(withHeader(rig.grid.Headers, coldRows)); got != want {
			out.fail("cold sweep rows digest %s, recorded at the parent commit %s (grid seed %d)", got, want, seed)
		}
		if gr.computed != w.cells {
			out.fail("cold sweep executed %d cells, want %d", gr.computed, w.cells)
		}

		// Warm, after collecting the cold sweep's garbage so no GC cycle
		// it started runs into the warm calls.
		runtime.GC()
		n, until := warmMin, runStart.Add(time.Duration(i+1)*slot)
		if traced {
			n, until = tracedWarm, time.Time{}
		}
		batch, err := warmCalls(ctx, rig, rec, n, until, coldRows, out, warmLayers, &st)
		if err != nil {
			return nil, err
		}
		if !traced {
			warm = append(warm, batch...)
			b := summarize(batch)
			warmP50s, warmTails = append(warmP50s, b.P50), append(warmTails, b.Tail)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if !traced {
			rssPeaks = append(rssPeaks, rss)
		}
		stats := rig.store.Stats()
		st.retries += stats.Retries
		st.quarantined += stats.Quarantined
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	coldS, warmS := summarize(cold), summarize(warm)
	out.samples["cold_s"] = coldS
	out.samples["warm_ms"] = warmS
	out.samples["setup_s"] = summarize(setups)
	out.metrics["setup_s"] = median(setups)
	out.metrics["latency_ms"] = ms(coldS.P50)
	out.samples["rss_mb"] = summarize(rssPeaks)
	out.metrics["peak_rss_mb"] = median(rssPeaks)
	out.metrics["client.cold_ms"] = ms(coldS.P50)
	// Per-iteration medians and tails, then their median: a burst of
	// CPU steal during one iteration's warm calls moves one of three.
	out.metrics["client.warm_p50_ms"] = median(warmP50s)
	out.metrics["client.warm_p99_ms"] = median(warmTails)
	out.checks["warm_tail_pct"] = warmS.TailP
	out.checks["row_digest"] = want

	if opt.trace {
		ops := float64(len(coldTraced))
		perOp := func(d time.Duration) float64 { return d.Seconds() / ops }
		m := out.metrics
		m["bcc.assemble_s"] = perOp(layers.self["assemble"])
		m["bcc.rounds_s"] = perOp(layers.self["rounds"])
		m["bcc.bind_s"] = perOp(layers.self["bind"])
		m["bcc.rounds"] = layers.rounds / ops
		m["bcc.bits"] = layers.bits / ops
		m["bcc.bit_plane_share"] = ratio(layers.bitPlane, layers.runs)
		m["family.build_s"] = perOp(layers.self["generate"])
		m["family.builds"] = float64(layers.count["generate"]) / ops
		m["protocol.run_s"] = perOp(layers.self["run"])
		m["protocol.correct_frac"] = 1 - ratio(layers.bad, layers.protoRuns)
		n := float64(eng.n)
		m["engine.cell_busy_s"] = eng.busy.Seconds() / n
		m["engine.worker_util"] = eng.busy.Seconds() / (float64(parallel.Limit()) * eng.wall.Seconds())
		m["engine.tail_s"] = eng.tail.Seconds() / n
		m["engine.cell_exec"] = float64(eng.computed) / n
		m["engine.sink_s"] = eng.sink.Seconds() / n
		m["results.put_s"] = perOp(layers.self["store.put"])
		m["results.puts"] = float64(st.coldPuts) / n
		m["results.get_s"] = warmLayers.self["store.get"].Seconds() / float64(warmLayers.traces)
		m["results.gets"] = float64(st.warmLookups) / float64(st.warmN)
		m["results.hit_ratio"] = ratio64(st.warmHits, st.warmLookups)
		m["results.lookups"] = float64(st.warmLookups)
		m["results.retries"] = float64(st.retries)
		m["results.quarantined"] = float64(st.quarantined)
		m["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		m["runtime.heap_peak_mb"] = heap.Stop()
		m["trace.overhead_frac"] = median(coldTraced)/median(cold) - 1
		out.samples["cold_traced_s"] = summarize(coldTraced)
		out.checks["top_self"] = layers.topSelf("e2ebench")
		out.checks["self_s_per_op"] = selfTable(layers, ops)
	}
	return out, nil
}

// storeCounts are result-store counter deltas over a run's phases.
type storeCounts struct {
	coldPuts, warmHits, warmLookups, warmN, retries, quarantined int64
}

// warmCalls makes warm RunGrid calls on a filled store, at least n and
// then more until the until time, checking each call's rows against the
// cold rows and that no cell was recomputed, and returns their
// latencies in ms.
func warmCalls(ctx context.Context, rig *sweepRig, rec *recorder, n int, until time.Time, coldRows [][]string, out *outcome, agg *layerAgg, st *storeCounts) ([]float64, error) {
	warm := make([]float64, 0, n)
	for j := 0; j < n || time.Now().Before(until); j++ {
		before := rig.store.Stats()
		rctx, done := rec.root(ctx)
		out.attempted++
		gr, err := rig.runGrid(rctx)
		done()
		if err != nil {
			return nil, fmt.Errorf("warm RunGrid: %w", err)
		}
		warm = append(warm, ms(gr.wall.Seconds()))
		after := rig.store.Stats()
		st.warmHits += after.Hits - before.Hits
		st.warmLookups += (after.Hits + after.Misses + after.Shared) - (before.Hits + before.Misses + before.Shared)
		st.warmN++
		if rec != nil {
			agg.addAll(rec.take())
		}
		switch {
		case gr.computed != 0:
			out.fail("warm sweep recomputed %d cells", gr.computed)
		case !slices.EqualFunc(gr.rows, coldRows, slices.Equal[[]string]):
			out.fail("warm sweep rows differ from the cold rows")
		}
	}
	return warm, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio64(a, b int64) float64 { return ratio(int(a), int(b)) }

// selfTable lists every span name's self time per operation, for the
// sample line.
func selfTable(a *layerAgg, ops float64) map[string]float64 {
	t := make(map[string]float64, len(a.self))
	for name, d := range a.self {
		t[name] = d.Seconds() / ops
	}
	return t
}

// recorder collects every span an in-process tracer completes, and
// roots each measured call in a trace of the benchmark's own.
type recorder struct {
	tracer *obs.Tracer
	mu     sync.Mutex
	recs   []obs.Record
	seq    int
}

func newRecorder() (*obs.Tracer, *recorder) {
	r := &recorder{tracer: obs.New(1 << 10)}
	r.tracer.OnEnd(func(rec obs.Record) {
		r.mu.Lock()
		r.recs = append(r.recs, rec)
		r.mu.Unlock()
	})
	return r.tracer, r
}

// root starts the benchmark's root span for one measured call (a no-op
// on a nil recorder) and returns the function that ends it.
func (r *recorder) root(ctx context.Context) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	r.seq++
	ctx, s := r.tracer.Root(ctx, "e2ebench", fmt.Sprintf("e2ebench-%d", r.seq))
	return ctx, s.End
}

// take returns and clears the collected spans, converted.
func (r *recorder) take() []span {
	r.mu.Lock()
	recs := r.recs
	r.recs = nil
	r.mu.Unlock()
	out := make([]span, len(recs))
	for i, rec := range recs {
		s := span{trace: rec.TraceID, id: rec.SpanID, parent: rec.ParentID, name: rec.Name, start: rec.Start, dur: rec.Duration}
		for j := 0; j < rec.NAttrs; j++ {
			if a := rec.Attrs[j]; a.IsNum {
				if s.nums == nil {
					s.nums = map[string]float64{}
				}
				s.nums[a.Key] = a.Num
			}
		}
		out[i] = s
	}
	return out
}

// printDigestTable computes the cold rows digest of a sweep workload
// for every grid seed — the values digests.go records.
func printDigestTable(ctx context.Context, opt options) error {
	if opt.workload == "serve-mixed" {
		for seed := int64(1); seed <= gridSeeds; seed++ {
			srv, _, err := setupServe(ctx, opt, filepath.Join(opt.workdir, fmt.Sprint("digest-", seed)), seed, 0)
			if err != nil {
				return err
			}
			srv.stop()
			fmt.Fprintf(os.Stdout, "\t%d: %q,\n", seed, rowsDigest(markdownRows(srv.report), markdownRows(srv.sweep)))
		}
		return nil
	}
	w, ok := sweepWorkloads[opt.workload]
	if !ok {
		return fmt.Errorf("-print-digests: unknown workload %q", opt.workload)
	}
	for seed := int64(1); seed <= gridSeeds; seed++ {
		rig, err := setupSweep(filepath.Join(opt.workdir, fmt.Sprint("digest-", seed)), w, seed, nil)
		if err != nil {
			return err
		}
		gr, err := rig.runGrid(ctx)
		if err != nil {
			return err
		}
		if err := checkRows(rig.grid, rig.cfg, gr.rows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "\t\t%d: %q,\n", seed, rowsDigest(withHeader(rig.grid.Headers, gr.rows)))
	}
	return nil
}
