// Command e2ebench is the repository's end-to-end benchmark. It drives
// three workloads and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}:
//
//	sweep-kt0-overflow  E17 kt0-exchange × {two-cycle, er-threshold} @ 1024, in-process
//	sweep-ladder        E17 {boruvka, flood-b1, sketch-a2} × {two-cycle, grid} @ {1024, 2048, 4096}, in-process
//	serve-mixed         a bccd subprocess under an open-loop mix of warm reports, warm sweeps and cold sweeps
//
// With -trace 0 the metrics are the end-to-end ones (endToEnd), measured
// with tracing off; with -trace 1 they are the per-layer ones
// (perLayer), aggregated from the spans the program already emits. The
// line before the result carries the run's environment, sample counts
// and correctness checks.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and bccd from source first:
//
//	bash e2ebench/run.sh --workload sweep-ladder --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bcclique/internal/parallel"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, gated by the
// bounds in BENCHMARK.json. Every workload reports every one;
// latency_ms is the latency of the workload's defining operation:
//
//	sweep-*      median wall clock of a cold RunGrid on a fresh store
//	serve-mixed  median latency, from its due time, of a warm sweep
//	             request at the fixed rate
//
// setup_s is the median set-up (sweep-*: a fresh process opening a store
// and building the engine; serve-mixed: bccd start until /readyz
// answers). The warm, cold and tail latencies, the SLO rate and the
// peak resident set are reported as layer metrics: on a shared 2-vCPU
// machine their spread between runs exceeds any bound that would still
// catch a regression (sweep-ladder's peak resident set follows the GC's
// pacing against two concurrent cells and spreads by over a quarter).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
}

// perLayer are the layer metrics of a traced run. A "_s" metric is
// seconds per operation: per cold sweep for the simulation and engine
// layers and per warm sweep for results.get_s on sweep-*; per request of
// the kind the layer serves on serve-mixed. The client.* metrics and
// peak_rss_mb are what the run's untraced part showed; peak_rss_mb is
// the median per-iteration peak resident set of the benchmark process
// (sweep-*) or bccd's peak (serve-mixed). Layers a workload does not
// reach report 0.
var perLayer = []metricDef{
	{"peak_rss_mb", "MB"},
	{"bcc.assemble_s", "s/op"},
	{"bcc.rounds_s", "s/op"},
	{"bcc.bind_s", "s/op"},
	{"bcc.rounds", "count/op"},
	{"bcc.bits", "count/op"},
	{"bcc.bit_plane_share", "frac"},
	{"family.build_s", "s/op"},
	{"family.builds", "count/op"},
	{"protocol.run_s", "s/op"},
	{"protocol.correct_frac", "frac"},
	{"engine.cell_busy_s", "s/op"},
	{"engine.worker_util", "frac"},
	{"engine.tail_s", "s/op"},
	{"engine.cell_exec", "count/op"},
	{"engine.sink_s", "s/op"},
	{"results.get_s", "s/op"},
	{"results.gets", "count/op"},
	{"results.hit_ratio", "frac"},
	{"results.lookups", "count"},
	{"results.put_s", "s/op"},
	{"results.puts", "count/op"},
	{"results.retries", "count"},
	{"results.quarantined", "count"},
	{"bccd.http_self_s", "s/op"},
	{"bccd.unattributed_frac", "frac"},
	{"serving.rejected", "count"},
	{"client.cold_ms", "ms"},
	{"client.warm_p50_ms", "ms"},
	{"client.warm_p99_ms", "ms"},
	{"client.max_rps_at_slo", "1/s"},
	{"client.fail_frac", "frac"},
	{"client.report_p50_ms", "ms"},
	{"client.report_p99_ms", "ms"},
	{"client.miss_tail_ms", "ms"},
	{"client.report_ttfb_ms", "ms"},
	{"client.report_body_ms", "ms"},
	{"client.hit_ttfb_ms", "ms"},
	{"client.hit_body_ms", "ms"},
	{"client.miss_ttfb_ms", "ms"},
	{"client.miss_body_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bccd     string
	workdir  string
}

// gridSeed maps the workload seed onto the Config.Seed of the grids.
// It is drawn from a fixed set so that every value has a row digest
// recorded (digests.go): the rows themselves, not only their
// self-consistency, are checked against the parent commit.
func gridSeed(seed int64) int64 {
	const n = gridSeeds
	return 1 + ((seed%n)+n)%n
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]summary
	checks            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]summary{}, checks: map[string]any{}}
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", msg)
	if prev, _ := o.checks["failures"].([]string); len(prev) < 20 {
		o.checks["failures"] = append(prev, msg)
	}
}

// errInvalid marks a run whose measurement is not trustworthy (the load
// generator fell behind its schedule): it is reported as invalid, not
// as slow.
type errInvalid struct{ reason string }

func (e errInvalid) Error() string { return "invalid run: " + e.reason }

func main() {
	var opt options
	var printDigests, setupOnly bool
	flag.StringVar(&opt.workload, "workload", "", "workload: sweep-kt0-overflow, sweep-ladder or serve-mixed")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: picks the grids' Config.Seed, the request mix and the cold-sweep seeds")
	flag.Float64Var(&opt.seconds, "seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics with tracing off")
	flag.StringVar(&opt.bccd, "bccd", "", "bccd binary (serve-mixed)")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for the run's stores (emptied of them on exit)")
	flag.BoolVar(&printDigests, "print-digests", false, "compute and print the row digests of -workload for every grid seed, then exit")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up -workload's sweep in -workdir and exit (the process setup_s times)")
	flag.Parse()
	opt.trace = *trace == 1
	if setupOnly {
		w, ok := sweepWorkloads[opt.workload]
		if ok {
			_, err := setupSweep(opt.workdir, w, gridSeed(opt.seed), nil)
			if err == nil {
				return
			}
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		os.Exit(1)
	}
	if err := run(opt, printDigests); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(opt options, printDigests bool) error {
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	parallel.SetLimit(runtime.NumCPU())
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	opt.workdir = tmp

	ctx := context.Background()
	var out *outcome
	switch {
	case printDigests:
		return printDigestTable(ctx, opt)
	case opt.workload == "serve-mixed":
		out, err = runServe(ctx, opt)
	case sweepWorkloads[opt.workload].name != "":
		out, err = runSweep(ctx, opt, sweepWorkloads[opt.workload])
	default:
		return fmt.Errorf("unknown -workload %q (want sweep-kt0-overflow, sweep-ladder or serve-mixed)", opt.workload)
	}
	if err != nil {
		return err
	}
	return report(opt, out)
}

// report prints the run's environment and sample line, then the result
// line with exactly the metric set the trace mode asks for.
func report(opt options, out *outcome) error {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out.metrics["client.fail_frac"] = ratio(out.failed, out.attempted)
	metrics := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !opt.trace {
			return fmt.Errorf("workload %s measured no %s", opt.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: %s is %v", opt.workload, d.name, v)
		}
		metrics[d.name] = metricJSON{v, d.unit}
	}
	if out.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", opt.workload)
	}
	info := map[string]any{
		"env":     environment(opt),
		"samples": out.samples,
		"checks":  out.checks,
	}
	line, err := json.Marshal(map[string]any{"e2ebench": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err = json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// environment records what the numbers were measured on.
func environment(opt options) map[string]any {
	return map[string]any{
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"parallel_limit": parallel.Limit(),
		"commit":         commit(),
		"workload":       opt.workload,
		"seed":           opt.seed,
		"grid_seed":      gridSeed(opt.seed),
		"seconds":        opt.seconds,
		"trace":          opt.trace,
	}
}

// commit names the measured source: the git HEAD where the checkout is
// a repository, else a digest of the Go sources and module files.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func ms(seconds float64) float64 { return seconds * 1e3 }
