package bcc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
)

// runBuffers is the per-run simulation scratch: the round's broadcast
// vector and the per-vertex inbox. Pooled across runs (and across the
// worker goroutines of a sweep grid) so the hot loop is allocation-free
// once the pool has warmed up for a given instance size.
type runBuffers struct {
	sends []Message
	inbox []Message
}

var runBufferPool = sync.Pool{New: func() interface{} { return &runBuffers{} }}

// intsPool recycles the per-run []int allocations whose ownership
// transfers into the Result — the RoundBits cost series and the
// verdict/label scratch. At n = 4096 a single flood run's RoundBits is
// a 4095-int slice; across the thousands of runs of a sweep grid that
// is pure allocator churn unless callers that discard their Results
// hand the slices back via Recycle.
var intsPool = sync.Pool{New: func() interface{} { return new([]int) }}

// takeInts returns a length-n []int from the pool (contents arbitrary;
// every caller fully overwrites it before any read).
func takeInts(n int) []int {
	p := intsPool.Get().(*[]int)
	s := *p
	if cap(s) < n {
		s = make([]int, n)
	}
	*p = nil
	intsPool.Put(p)
	return s[:n]
}

func recycleInts(s []int) {
	if cap(s) == 0 {
		return
	}
	p := intsPool.Get().(*[]int)
	*p = s[:0]
	intsPool.Put(p)
}

// Recycle returns a Result's pooled backing slices (RoundBits, Labels)
// for reuse by future runs and nils the fields. Call it only when the
// Result — and everything that aliased those slices — is dead; hot
// loops that run thousands of discarded simulations (EstimateError,
// the equivalence suite) use it to keep the per-run cost series off
// the allocator.
func Recycle(res *Result) {
	if res == nil {
		return
	}
	recycleInts(res.RoundBits)
	res.RoundBits = nil
	recycleInts(res.Labels)
	res.Labels = nil
}

// getRunBuffers returns scratch sized for n vertices, growing the pooled
// arenas if this n is the largest seen.
func getRunBuffers(n int) *runBuffers {
	buf := runBufferPool.Get().(*runBuffers)
	if cap(buf.sends) < n {
		buf.sends = make([]Message, n)
		buf.inbox = make([]Message, n-1)
	}
	buf.sends = buf.sends[:n]
	buf.inbox = buf.inbox[:n-1]
	return buf
}

func putRunBuffers(buf *runBuffers) { runBufferPool.Put(buf) }

// Verdict is a vertex's (or the system's) answer to a decision problem.
type Verdict int

const (
	// VerdictNo rejects (e.g. "disconnected").
	VerdictNo Verdict = iota + 1
	// VerdictYes accepts (e.g. "connected").
	VerdictYes
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNo:
		return "NO"
	case VerdictYes:
		return "YES"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Algorithm is a BCC(b) algorithm: a factory of per-vertex state machines
// plus its bandwidth and round schedule.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Bandwidth returns the per-round bit budget b the algorithm needs.
	Bandwidth() int
	// Rounds returns the number of rounds the algorithm runs on size-n
	// instances.
	Rounds(n int) int
	// NewNode creates the state machine for a vertex with the given
	// initial knowledge. All vertices share the same public coin.
	NewNode(view View, coin *Coin) Node
}

// Node is the per-vertex state machine. In each round t = 1, 2, ... the
// runner first calls Send(t) on every node, then delivers all broadcasts
// via Receive(t, inbox), where inbox[p] holds the message heard on port p.
// The inbox slice is reused between rounds; nodes must copy anything they
// retain.
type Node interface {
	Send(round int) Message
	Receive(round int, inbox []Message)
}

// RunBinder is an optional Algorithm interface for shared-substrate
// protocols. When implemented, the runner calls BindRun once per run —
// after the round count is resolved, before any node is built — and
// uses the returned per-run Algorithm to construct nodes. The bound
// algorithm typically carries run-shared state (a frozen instance
// substrate plus the broadcast mirror every replica would otherwise
// replicate), so n replicas shrink to compact per-replica residue.
//
// Implementing RunBinder also opts the algorithm into intra-cell
// sharding on the word plane: it declares that distinct nodes of one
// run may execute their SendWord and ReceivePlanes phases
// concurrently. The bound algorithm rides the plane when it implements
// BitAlgorithm; otherwise the run takes the sequential reference loop.
type RunBinder interface {
	BindRun(in *Instance, rounds int) Algorithm
}

// RunReleaser is an optional interface of the Algorithm returned by
// BindRun. ReleaseRun is called when the run's outputs have been fully
// extracted, so bound algorithms can hand pooled arenas back for the
// next run.
type RunReleaser interface {
	ReleaseRun()
}

// Decider is implemented by nodes solving decision problems such as
// Connectivity, TwoCycle and MultiCycle. Per Section 1.2, the system
// outputs YES iff every vertex outputs YES.
type Decider interface {
	Decide() Verdict
}

// Labeler is implemented by nodes solving ConnectedComponents: each vertex
// outputs the label of the connected component it belongs to.
type Labeler interface {
	Label() int
}

// Transcript records what one vertex sent, and (optionally) received, over
// the run. Together with the vertex's initial view this is the "state" used
// in indistinguishability arguments.
type Transcript struct {
	Sent     []Message   // Sent[t-1] is the round-t broadcast
	Received [][]Message // Received[t-1][p]; nil unless requested
}

// Result is the outcome of running an algorithm on an instance.
type Result struct {
	Rounds     int
	HasVerdict bool
	Verdict    Verdict // meaningful only if HasVerdict
	Labels     []int   // per-vertex labels; nil unless all nodes are Labelers
	TotalBits  int     // total bits broadcast over the whole run
	// RoundBits[t-1] is the number of bits all vertices broadcast in
	// round t — the per-round cost transcript, always recorded (it is
	// O(rounds), independent of n).
	RoundBits []int
	// Transcripts holds the per-vertex Sent (and optionally Received)
	// message sequences; nil under WithoutTranscripts.
	Transcripts []Transcript
	// BitPlane reports whether the run was served by the word plane
	// (see bitplane.go) instead of the per-port reference loop. Both
	// paths are pinned byte-identical by the equivalence suites; the
	// flag exists for observability and for tests asserting the plane
	// actually engaged.
	BitPlane bool
}

// SentSequence returns the broadcast sequence of vertex v.
func (r *Result) SentSequence(v int) []Message { return r.Transcripts[v].Sent }

// options configures Run.
type options struct {
	ctx            context.Context
	coin           *Coin
	rounds         int // -1: use the algorithm's schedule
	recordReceived bool
	noTranscripts  bool
	noBitPlane     bool
}

// Option configures Run.
type Option interface {
	apply(*options)
}

type coinOption struct{ coin *Coin }

func (o coinOption) apply(opts *options) { opts.coin = o.coin }

// WithCoin runs the algorithm with the given public coin.
func WithCoin(c *Coin) Option { return coinOption{coin: c} }

type roundsOption int

func (o roundsOption) apply(opts *options) { opts.rounds = int(o) }

// WithRounds overrides the algorithm's round schedule, truncating or
// extending the run to exactly r rounds. Lower-bound experiments use this
// to observe the first t rounds of an algorithm.
func WithRounds(r int) Option { return roundsOption(r) }

type recordReceivedOption struct{}

func (recordReceivedOption) apply(opts *options) { opts.recordReceived = true }

// WithReceivedTranscripts records per-port received messages in the result
// transcripts (O(n²·t) memory). They are derived after the run from the
// Sent transcripts and the port table, so the option does not change
// which simulator path serves the run.
func WithReceivedTranscripts() Option { return recordReceivedOption{} }

type noTranscriptsOption struct{}

func (noTranscriptsOption) apply(opts *options) { opts.noTranscripts = true }

// WithoutTranscripts runs without recording any per-vertex message
// transcripts: Result.Transcripts is nil and only the O(rounds)
// RoundBits cost series (plus verdict/labels) is retained. This is the
// memory-bounded mode the sweep grids use at large n, where a Sent
// arena alone would be Θ(n·rounds) — 268 MB for flood-b1 at n = 4096.
// It conflicts with WithReceivedTranscripts.
func WithoutTranscripts() Option { return noTranscriptsOption{} }

type noBitPlaneOption struct{}

func (noBitPlaneOption) apply(opts *options) { opts.noBitPlane = true }

// WithoutBitPlane forces the per-port reference loop even for
// algorithms whose nodes could ride the word plane. The reference loop
// is the equivalence oracle: the plane test suites and the before/after
// benchmarks run the same algorithm down both paths.
func WithoutBitPlane() Option { return noBitPlaneOption{} }

// Run executes the algorithm on the instance and returns the result.
// Sent transcripts are always recorded (they are the labels that drive the
// crossing machinery); received transcripts only on request.
func Run(in *Instance, algo Algorithm, opts ...Option) (*Result, error) {
	return RunContext(context.Background(), in, algo, opts...)
}

// RunContext is Run with cancellation: the context is checked at every
// round boundary on both simulator paths (the per-port reference loop
// and the word plane), so a disconnected client or a shutdown signal
// stops a long simulation within one round instead of burning CPU to
// the schedule's end. A cancelled run returns ctx's error and no
// Result — partial transcripts are never surfaced, so cancellation can
// never be mistaken for (or cached as) a computed outcome.
func RunContext(ctx context.Context, in *Instance, algo Algorithm, opts ...Option) (*Result, error) {
	o := options{ctx: ctx, rounds: -1}
	for _, opt := range opts {
		opt.apply(&o)
	}
	n := in.N()
	b := algo.Bandwidth()
	if b < 1 || b > MaxBandwidth {
		return nil, fmt.Errorf("bcc: algorithm %q has bandwidth %d outside [1,%d]", algo.Name(), b, MaxBandwidth)
	}
	rounds := o.rounds
	if rounds < 0 {
		rounds = algo.Rounds(n)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("bcc: algorithm %q returned negative round count %d", algo.Name(), rounds)
	}

	if o.noTranscripts && o.recordReceived {
		return nil, fmt.Errorf("bcc: WithoutTranscripts conflicts with WithReceivedTranscripts")
	}

	// span is the enclosing per-run span ("run" in the sweep tree) when
	// the caller traces; with tracing off it is nil and every phase hook
	// below degrades to a nil check. Phase spans are created per run —
	// never per round — so the hot loop stays allocation-free.
	span := obs.FromContext(ctx)

	// Shared-substrate algorithms bind once per run; the bound algorithm
	// owns the run's shared state and is what nodes are built from.
	// Binding also opts plane runs into intra-cell sharding at large n.
	bindSpan := span.Child("bind")
	runAlgo := algo
	bound := false
	if rb, ok := algo.(RunBinder); ok {
		runAlgo = rb.BindRun(in, rounds)
		bound = true
		if rr, ok := runAlgo.(RunReleaser); ok {
			defer rr.ReleaseRun()
		}
	}

	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = runAlgo.NewNode(in.View(v), o.coin)
	}
	bindSpan.SetStr("algorithm", runAlgo.Name())
	bindSpan.SetNum("n", float64(n))
	if bound {
		bindSpan.SetNum("bound", 1)
	}
	bindSpan.End()

	// RoundBits comes out of the recycling pool (see Recycle): both
	// loops write every slot, so stale pool contents are inert. One flat
	// arena backs every vertex's Sent transcript: n slices into a single
	// allocation instead of n append-grown ones.
	res := &Result{Rounds: rounds, RoundBits: takeInts(rounds)}
	var sent []Message
	if !o.noTranscripts {
		res.Transcripts = make([]Transcript, n)
		sent = make([]Message, n*rounds)
		for v := range res.Transcripts {
			res.Transcripts[v].Sent = sent[v*rounds : (v+1)*rounds : (v+1)*rounds]
		}
	}

	roundsSpan := span.Child("rounds")
	var plane *planeRun
	if ba, ok := runAlgo.(BitAlgorithm); ok && ba.BitPlane() && !o.noBitPlane {
		plane = bindPlane(in, nodes, b)
	}
	var err error
	shards := 0
	if plane != nil {
		helpers := bound && n >= intraCellThreshold()
		err = plane.run(o.ctx, res, sent, helpers)
		if helpers {
			shards = plane.sg.numShards
		}
		plane.release()
	} else {
		err = runReference(o.ctx, in, nodes, res, b)
	}
	if err != nil {
		recycleInts(res.RoundBits)
		roundsSpan.EndErr(err)
		return nil, err
	}
	annotateRounds(roundsSpan, res, shards)
	if o.recordReceived {
		deriveReceived(in, res)
	}
	assembleSpan := span.Child("assemble")
	finishOutputs(res, nodes)
	assembleSpan.End()
	return res, nil
}

// runReference is the per-port reference loop — the paper's model
// executed literally: every node sends a Message, then hears the
// round's broadcasts through its own (n−1)-slot port inbox. It is
// sequential and serves every run the word plane does not.
func runReference(ctx context.Context, in *Instance, nodes []Node, res *Result, b int) error {
	// Per-run send/inbox scratch comes from a pool sized by the largest
	// n seen; every slot is overwritten before it is read.
	buf := getRunBuffers(len(nodes))
	defer putRunBuffers(buf)
	sends, inbox := buf.sends, buf.inbox
	for t := 1; t <= res.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		roundBits := 0
		for v, node := range nodes {
			m := node.Send(t)
			if int(m.Len) > b {
				return fmt.Errorf("bcc: vertex %d broadcast %d bits in round %d, bandwidth is %d", v, m.Len, t, b)
			}
			sends[v] = m
			roundBits += int(m.Len)
			if res.Transcripts != nil {
				res.Transcripts[v].Sent[t-1] = m
			}
		}
		res.RoundBits[t-1] = roundBits
		res.TotalBits += roundBits
		for v, node := range nodes {
			if in.canonical {
				// Canonical ascending-ID wiring: port p of v carries
				// vertex p (p < v) or p+1, so delivery is two block
				// copies instead of an indexed gather.
				copy(inbox[:v], sends[:v])
				copy(inbox[v:], sends[v+1:])
			} else {
				// ports[v][p] is the vertex whose broadcast lands on
				// port p of v — one linear pass per vertex instead of
				// a PortOf(v, u) lookup per (v, u) pair.
				for p, u := range in.ports[v] {
					inbox[p] = sends[u]
				}
			}
			node.Receive(t, inbox)
		}
	}
	return nil
}

// deriveReceived fills the Received transcripts from the Sent ones and
// the port table: a broadcast is heard identically on every port it
// reaches, so Received[v][t-1][p] = Sent[NeighborAt(v, p)][t-1].
func deriveReceived(in *Instance, res *Result) {
	n, rounds := in.N(), res.Rounds
	rows := make([][]Message, n*rounds)
	arena := make([]Message, n*rounds*(n-1))
	for v := 0; v < n; v++ {
		recv := rows[v*rounds : (v+1)*rounds : (v+1)*rounds]
		for t := range recv {
			i := (v*rounds + t) * (n - 1)
			row := arena[i : i+n-1 : i+n-1]
			for p := range row {
				row[p] = res.Transcripts[in.NeighborAt(v, p)].Sent[t]
			}
			recv[t] = row
		}
		res.Transcripts[v].Received = recv
	}
}

// annotateRounds summarizes a finished round loop onto its span and
// ends it: round/bit totals, whether the word plane served the run, the
// intra-cell shard count (0: not sharded), and a coarse
// per-round-window bit profile derived from the already-recorded
// RoundBits series — all computed after the loop, so the hot path never
// touches the tracer.
func annotateRounds(s *obs.Span, res *Result, shards int) {
	if s == nil {
		return
	}
	s.SetNum("rounds", float64(res.Rounds))
	s.SetNum("total_bits", float64(res.TotalBits))
	if res.BitPlane {
		s.SetNum("bit_plane", 1)
	}
	if shards > 0 {
		s.SetNum("shards", float64(shards))
	}
	s.SetStr("round_windows", roundWindows(res.RoundBits))
	s.End()
}

// roundWindows compresses the per-round bit series into at most eight
// equal windows of summed bits ("4096/4096/2048/…"): enough to see
// where in the run the bits went without per-round spans.
func roundWindows(bits []int) string {
	if len(bits) == 0 {
		return ""
	}
	windows := 8
	if len(bits) < windows {
		windows = len(bits)
	}
	var sb strings.Builder
	for w := 0; w < windows; w++ {
		lo := w * len(bits) / windows
		hi := (w + 1) * len(bits) / windows
		sum := 0
		for _, v := range bits[lo:hi] {
			sum += v
		}
		if w > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(strconv.Itoa(sum))
	}
	return sb.String()
}

// finishOutputs collects the decision/labelling epilogue shared by both
// runner paths. The label scratch is pooled and only kept by the
// Result when every node is a Labeler.
func finishOutputs(res *Result, nodes []Node) {
	n := len(nodes)
	res.HasVerdict = true
	verdict := VerdictYes
	labels := takeInts(n)
	allLabelers := true
	for v := 0; v < n; v++ {
		if d, ok := nodes[v].(Decider); ok {
			if d.Decide() == VerdictNo {
				verdict = VerdictNo
			}
		} else {
			res.HasVerdict = false
		}
		if l, ok := nodes[v].(Labeler); ok {
			labels[v] = l.Label()
		} else {
			allLabelers = false
		}
	}
	if res.HasVerdict {
		res.Verdict = verdict
	}
	if allLabelers {
		res.Labels = labels
	} else {
		recycleInts(labels)
	}
}

// EstimateError runs a Monte Carlo algorithm once per coin seed and returns
// the fraction of runs whose system verdict differs from want. This is the
// empirical counterpart of the ε in the paper's ε-error Monte Carlo
// definition (Section 1.2).
//
// Seeded runs execute in parallel on the process-wide worker pool (see
// internal/parallel); the estimate is bit-identical at every worker count
// because each seed's run is independent. A WithCoin option in opts is
// rejected: it would conflict with — and previously silently overrode —
// the per-seed coins, collapsing every run onto one coin.
func EstimateError(in *Instance, algo Algorithm, want Verdict, seeds []int64, opts ...Option) (float64, error) {
	return EstimateErrorContext(context.Background(), in, algo, want, seeds, opts...)
}

// EstimateErrorContext is EstimateError with cancellation: once ctx is
// done, unstarted seeds are skipped, in-flight runs stop at their next
// round boundary, and ctx's error is returned — a partial estimate is
// never reported as if it covered every seed.
func EstimateErrorContext(ctx context.Context, in *Instance, algo Algorithm, want Verdict, seeds []int64, opts ...Option) (float64, error) {
	if len(seeds) == 0 {
		return 0, fmt.Errorf("bcc: no seeds")
	}
	probe := options{rounds: -1}
	for _, opt := range opts {
		opt.apply(&probe)
	}
	if probe.coin != nil {
		return 0, fmt.Errorf("bcc: EstimateError: WithCoin conflicts with per-seed coins; pass seeds instead")
	}
	wrong := make([]bool, len(seeds))
	err := parallel.ForEachCtx(ctx, len(seeds), func(i int) error {
		runOpts := make([]Option, 0, len(opts)+1)
		runOpts = append(runOpts, opts...)
		runOpts = append(runOpts, WithCoin(NewCoin(seeds[i])))
		res, err := RunContext(ctx, in, algo, runOpts...)
		if err != nil {
			return err
		}
		if !res.HasVerdict {
			return fmt.Errorf("bcc: algorithm %q produced no verdict", algo.Name())
		}
		wrong[i] = res.Verdict != want
		// Nothing outlives the verdict check: recycle the per-run cost
		// series and label scratch instead of churning the allocator
		// once per seed.
		Recycle(res)
		return nil
	})
	if err != nil {
		return 0, err
	}
	count := 0
	for _, w := range wrong {
		if w {
			count++
		}
	}
	return float64(count) / float64(len(seeds)), nil
}

// SentTritLabels returns, for every vertex, the {0,1,⊥}-string it broadcast
// over the run — the per-vertex sequences x, y used to define edge labels
// and active edges in the KT-0 lower bound (Section 3). It errors if any
// message is longer than one bit.
func SentTritLabels(res *Result) ([]string, error) {
	labels := make([]string, len(res.Transcripts))
	for v := range res.Transcripts {
		s, err := TritString(res.Transcripts[v].Sent)
		if err != nil {
			return nil, fmt.Errorf("vertex %d: %w", v, err)
		}
		labels[v] = s
	}
	return labels, nil
}
