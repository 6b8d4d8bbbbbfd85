package protocol

import (
	"context"
	"reflect"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/family"
	"bcclique/internal/graph"
)

func build(t *testing.T, famName string, n int, seed int64) *graph.Graph {
	t.Helper()
	f, ok := family.Lookup(famName)
	if !ok {
		t.Fatalf("unknown family %s", famName)
	}
	g, err := f.Build(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllProtocolsCorrectOnCycles runs every registered protocol on a
// connected one-cycle and a disconnected two-cycle: every adapter must
// decide and label both correctly (the sketch promise a=1 cannot peel
// 2-regular graphs, so it refuses — detectably).
func TestAllProtocolsCorrectOnCycles(t *testing.T) {
	const n = 16
	one := build(t, "one-cycle", n, 3)
	two := build(t, "two-cycle", n, 3)
	for _, p := range All() {
		for _, g := range []*graph.Graph{one, two} {
			out, err := p.Run(context.Background(), g, 5)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if p.Name() == "sketch-a1" {
				if out.SilentWrong() {
					t.Errorf("%s: silent wrong answer on a 2-regular input", p.Name())
				}
				continue
			}
			if !out.Correct {
				t.Errorf("%s on %d-component input: verdict %v, correct=false",
					p.Name(), g.NumComponents(), out.Verdict)
			}
			if out.SilentWrong() {
				t.Errorf("%s: silent wrong answer", p.Name())
			}
		}
	}
}

// TestOutcomeCostAccounting pins the per-round transcript: RoundBits
// sums to TotalBits, has one entry per round, and never exceeds
// n·bandwidth per round.
func TestOutcomeCostAccounting(t *testing.T) {
	g := build(t, "one-cycle", 16, 1)
	for _, p := range All() {
		out, err := p.Run(context.Background(), g, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(out.RoundBits) != out.Rounds {
			t.Errorf("%s: %d round-bit entries for %d rounds", p.Name(), len(out.RoundBits), out.Rounds)
		}
		sum := 0
		for t1, b := range out.RoundBits {
			if b < 0 || b > out.N*out.Bandwidth {
				t.Errorf("%s round %d: %d bits outside [0, %d]", p.Name(), t1+1, b, out.N*out.Bandwidth)
			}
			sum += b
		}
		if sum != out.TotalBits {
			t.Errorf("%s: round bits sum to %d, total is %d", p.Name(), sum, out.TotalBits)
		}
		if out.Bandwidth != p.Bandwidth(out.N) {
			t.Errorf("%s: outcome bandwidth %d, declared %d", p.Name(), out.Bandwidth, p.Bandwidth(out.N))
		}
	}
}

// TestRoundSummary pins the memory-bounded digest: nearest-rank
// quantiles over a known series, the degenerate cases, and agreement
// with every adapter's live outcome.
func TestRoundSummary(t *testing.T) {
	s := SummarizeRounds([]int{5, 1, 3, 2, 4})
	want := RoundSummary{Rounds: 5, TotalBits: 15, MinBits: 1, MedianBits: 3, P95Bits: 5, MaxBits: 5}
	if s != want {
		t.Errorf("summary = %+v, want %+v", s, want)
	}
	if z := SummarizeRounds(nil); z != (RoundSummary{}) {
		t.Errorf("empty summary = %+v", z)
	}
	g := build(t, "two-cycle", 16, 2)
	for _, p := range All() {
		out, err := p.Run(context.Background(), g, 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		s := out.Summary()
		if s.Rounds != out.Rounds || s.TotalBits != out.TotalBits {
			t.Errorf("%s: summary %+v disagrees with outcome (rounds %d bits %d)",
				p.Name(), s, out.Rounds, out.TotalBits)
		}
		if s.MinBits > s.MedianBits || s.MedianBits > s.P95Bits || s.P95Bits > s.MaxBits {
			t.Errorf("%s: quantiles out of order: %+v", p.Name(), s)
		}
	}
}

// TestRunDeterministic pins the adapter determinism contract: equal
// (graph, seed) yield equal outcomes, including for the KT-0 adapter
// whose wiring is seeded.
func TestRunDeterministic(t *testing.T) {
	g := build(t, "er-threshold", 24, 9)
	for _, p := range All() {
		a, err := p.Run(context.Background(), g, 11)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		b, err := p.Run(context.Background(), g, 11)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs with one seed diverge", p.Name())
		}
	}
}

// TestSketchRefusesOutsidePromise is the promise-violation contract: on
// a barbell (minimum degree ≫ 4a) the peeling stalls and every replica
// refuses with NO/−1 — detectably, never silently wrong.
func TestSketchRefusesOutsidePromise(t *testing.T) {
	g := build(t, "barbell", 32, 1)
	for _, a := range []int{1, 2} {
		out, err := Sketch{Arboricity: a}.Run(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Refused {
			t.Errorf("sketch-a%d on barbell-32: expected refusal, got verdict %v labels %v",
				a, out.Verdict, out.Labels[:4])
		}
		if out.SilentWrong() {
			t.Errorf("sketch-a%d: silent wrong answer", a)
		}
		if out.Verdict != bcc.VerdictNo {
			t.Errorf("sketch-a%d: refusal must carry verdict NO", a)
		}
	}
}

// TestKeyGolden pins the canonical cache-key encoding of every
// protocol. These strings feed the content-addressed result cache;
// change an adapter's parameters or version deliberately, then update
// this table in the same commit.
func TestKeyGolden(t *testing.T) {
	want := map[string]string{
		"neighborhood": "protocol=neighborhood;v=1;deg=auto",
		"kt0-exchange": "protocol=kt0-exchange;v=1;deg=auto;wiring=random",
		"boruvka":      "protocol=boruvka;v=1;idbits=ceil(log2(n))",
		"flood-b1":     "protocol=flood;v=1;b=1",
		"sketch-a1":    "protocol=sketch;v=1;a=1",
		"sketch-a2":    "protocol=sketch;v=1;a=2",
	}
	ps := All()
	if len(ps) != len(want) {
		t.Fatalf("registry has %d protocols, golden table has %d", len(ps), len(want))
	}
	for _, p := range ps {
		if got := p.Key(); got != want[p.Name()] {
			t.Errorf("%s key = %q, want %q", p.Name(), got, want[p.Name()])
		}
	}
}

// TestLookupAndNames covers the registry surface.
func TestLookupAndNames(t *testing.T) {
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok || p.Name() != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestKT0ExchangeWideStream runs kt0-exchange on an input whose phase-2
// stream spans two words: a star with centre 0 and leaves 1..14,
// vertices 15..29 isolated, and the edge 30–31 give MaxDegree 14 and
// 5-bit IDs, so 70 bits per stream. Slots past bit 64 must decode as
// the IDs that were broadcast, not as truncated or zero IDs.
func TestKT0ExchangeWideStream(t *testing.T) {
	g := graph.New(32)
	for v := 1; v <= 14; v++ {
		g.MustAddEdge(0, v)
	}
	g.MustAddEdge(30, 31)
	for _, seed := range []int64{1, 2, 3} {
		out, err := KT0Exchange{}.Run(context.Background(), g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct {
			t.Errorf("seed %d: verdict %v, labels %v, correct=false", seed, out.Verdict, out.Labels)
		}
	}
}

// TestNeighborhoodWideStream runs neighborhood on an input whose
// per-port stream spans two words: at n = 1024 (10-bit indices) vertex
// 100 with leaves 1..7 and vertex 200 with leaves 8..14, joined by the
// edge 100–200, give MaxDegree 8 and 80 bits per stream. The edge sits
// in slot 7 (bits 70..79) on both sides, so a one-word stream drops it
// and reports two components. The 70-bit instance of
// TestKT0ExchangeWideStream, small enough for the per-port reference
// loop, pins the word plane's wide streams to the reference oracle.
func TestNeighborhoodWideStream(t *testing.T) {
	g := graph.New(1024)
	for v := 1; v <= 7; v++ {
		g.MustAddEdge(100, v)
		g.MustAddEdge(200, v+7)
	}
	g.MustAddEdge(100, 200)
	out, err := Neighborhood{}.Run(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.SilentWrong() {
		t.Errorf("n=1024: verdict %v, correct=%v, silent wrong=%v", out.Verdict, out.Correct, out.SilentWrong())
	}

	star := graph.New(32)
	for v := 1; v <= 14; v++ {
		star.MustAddEdge(0, v)
	}
	star.MustAddEdge(30, 31)
	fast, err := Neighborhood{}.Run(context.Background(), star, 1)
	if err != nil {
		t.Fatal(err)
	}
	referenceOracle = true
	oracle, err := Neighborhood{}.Run(context.Background(), star, 1)
	referenceOracle = false
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Correct || !fast.BitPlane || oracle.BitPlane {
		t.Fatalf("n=32: correct=%v, plane runs: fast %v oracle %v", fast.Correct, fast.BitPlane, oracle.BitPlane)
	}
	oracle.BitPlane = true
	if !reflect.DeepEqual(fast, oracle) {
		t.Errorf("n=32: outcomes diverge:\nfast   %+v\noracle %+v", fast, oracle)
	}
}
