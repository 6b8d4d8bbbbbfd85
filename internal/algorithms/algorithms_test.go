package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// testGraphs returns a labelled set of inputs with their expected
// connectivity and component labelling (by minimum ID, IDs sequential).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cycle9, err := graph.FromCycle(9, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	twoCycles, err := graph.FromCycles(9, []int{0, 1, 2, 3}, []int{4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	scrambled, err := graph.FromCycle(9, []int{3, 7, 1, 8, 0, 5, 2, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	path := graph.New(9)
	for i := 0; i < 8; i++ {
		path.MustAddEdge(i, i+1)
	}
	sparse := graph.New(9)
	sparse.MustAddEdge(0, 4)
	sparse.MustAddEdge(5, 8)
	return map[string]*graph.Graph{
		"hamiltonian cycle": cycle9,
		"two cycles":        twoCycles,
		"scrambled cycle":   scrambled,
		"path":              path,
		"sparse":            sparse,
	}
}

func wantOutputs(g *graph.Graph) (bcc.Verdict, []int) {
	labels := g.ComponentLabels()
	verdict := bcc.VerdictYes
	if g.NumComponents() != 1 {
		verdict = bcc.VerdictNo
	}
	return verdict, labels
}

// runAndCheck runs a full-reconstruction algorithm on a KT-1 (or KT-0)
// instance of g and verifies verdict and labels.
func runAndCheck(t *testing.T, name string, algo bcc.Algorithm, g *graph.Graph, kt0 bool) {
	t.Helper()
	var (
		in  *bcc.Instance
		err error
	)
	ids := bcc.SequentialIDs(g.N())
	if kt0 {
		rng := rand.New(rand.NewSource(77))
		in, err = bcc.NewKT0(ids, g, bcc.RandomWiring(g.N(), rng))
	} else {
		in, err = bcc.NewKT1(ids, g)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict, wantLabels := wantOutputs(g)
	if !res.HasVerdict || res.Verdict != wantVerdict {
		t.Errorf("%s on %q: verdict = %v (has=%v), want %v", algo.Name(), name, res.Verdict, res.HasVerdict, wantVerdict)
	}
	if res.Labels == nil {
		t.Fatalf("%s on %q: no labels", algo.Name(), name)
	}
	for v := range wantLabels {
		if res.Labels[v] != wantLabels[v] {
			t.Errorf("%s on %q: label[%d] = %d, want %d", algo.Name(), name, v, res.Labels[v], wantLabels[v])
		}
	}
}

func TestNeighborhoodBroadcast(t *testing.T) {
	algo, err := NewNeighborhoodBroadcast(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range testGraphs(t) {
		if name == "sparse" || name == "path" {
			continue // degree fits but these exercise other algorithms
		}
		t.Run(name, func(t *testing.T) {
			runAndCheck(t, name, algo, g, false)
		})
	}
}

func TestNeighborhoodBroadcastRoundsFormula(t *testing.T) {
	algo, err := NewNeighborhoodBroadcast(2)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ n, want int }{
		{8, 6}, {9, 8}, {16, 8}, {17, 10}, {1024, 20},
	}
	for _, tt := range tests {
		if got := algo.Rounds(tt.n); got != tt.want {
			t.Errorf("Rounds(%d) = %d, want 2⌈log₂ n⌉ = %d", tt.n, got, tt.want)
		}
	}
}

func TestNeighborhoodBroadcastDegreeOverflow(t *testing.T) {
	star := graph.New(5)
	for i := 1; i < 5; i++ {
		star.MustAddEdge(0, i)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(5), star)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewNeighborhoodBroadcast(2) // centre has degree 4 > 2
	if err != nil {
		t.Fatal(err)
	}
	res, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != bcc.VerdictNo {
		t.Error("overflowing node should force a NO verdict, not a wrong YES")
	}
}

func TestKT0Exchange(t *testing.T) {
	algo, err := NewKT0Exchange(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range testGraphs(t) {
		if name == "sparse" || name == "path" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			runAndCheck(t, name, algo, g, true /* KT-0 */)
		})
	}
}

func TestKT0ExchangeRounds(t *testing.T) {
	algo, err := NewKT0Exchange(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := algo.Rounds(1024); got != 30 {
		t.Errorf("Rounds = %d, want (2+1)·10 = 30", got)
	}
}

// TestKT0StreamSlots round-trips phase-2 streams through setStreamBit
// and slotID at widths whose slots straddle word boundaries.
func TestKT0StreamSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, idBits := range []int{1, 5, 9, 13, 62} {
		a := &KT0Exchange{MaxDegree: 3 + 200/idBits, IDBits: idBits}
		stream := make([]uint64, a.streamWords())
		ids := make([]int, a.MaxDegree)
		for s := range ids {
			ids[s] = rng.Intn(1 << uint(idBits))
			for b := 0; b < idBits; b++ {
				setStreamBit(stream, uint8(ids[s]>>uint(b)), s*idBits+b)
			}
		}
		for s, want := range ids {
			if got := slotID(stream, s, idBits); got != want {
				t.Errorf("idBits=%d slot %d: decoded %d, wrote %d", idBits, s, got, want)
			}
		}
	}
}

func TestFlood(t *testing.T) {
	for _, b := range []int{1, 3, 8} {
		algo, err := NewFlood(b)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range testGraphs(t) {
			t.Run(fmt.Sprintf("b=%d/%s", b, name), func(t *testing.T) {
				runAndCheck(t, name, algo, g, false)
			})
		}
	}
}

func TestFloodRounds(t *testing.T) {
	algo, err := NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := algo.Rounds(64); got != 63 {
		t.Errorf("Rounds(64) at b=1: %d, want 63", got)
	}
	algo8, err := NewFlood(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := algo8.Rounds(64); got != 8 {
		t.Errorf("Rounds(64) at b=8: %d, want ⌈63/8⌉ = 8", got)
	}
}

func TestBoruvka(t *testing.T) {
	algo, err := NewBoruvka(5)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			runAndCheck(t, name, algo, g, false)
		})
	}
}

func TestBoruvkaRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	algo, err := NewBoruvka(6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(28)
		g := graph.New(n)
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		runAndCheck(t, fmt.Sprintf("random-%d", trial), algo, g, false)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewNeighborhoodBroadcast(0); err == nil {
		t.Error("NewNeighborhoodBroadcast(0) succeeded")
	}
	if _, err := NewKT0Exchange(2, 0); err == nil {
		t.Error("NewKT0Exchange with zero ID bits succeeded")
	}
	if _, err := NewKT0Exchange(0, 4); err == nil {
		t.Error("NewKT0Exchange with zero degree succeeded")
	}
	if _, err := NewFlood(0); err == nil {
		t.Error("NewFlood(0) succeeded")
	}
	if _, err := NewBoruvka(30); err == nil {
		t.Error("NewBoruvka(30) succeeded (needs 91-bit bandwidth)")
	}
}

// TestProbesAreWiringInsensitive runs each probe on the same input graph
// under different wirings and checks the per-vertex broadcast sequences
// coincide — the property that makes the indistinguishability-graph
// quotient exact.
func TestProbesAreWiringInsensitive(t *testing.T) {
	g, err := graph.FromCycle(8, []int{0, 3, 1, 5, 7, 2, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	coin := bcc.NewCoin(5)
	probes := []bcc.Algorithm{
		Silent{T: 5, Answer: bcc.VerdictYes},
		CoinCast{T: 5},
		InputParity{T: 5},
	}
	rng := rand.New(rand.NewSource(3))
	for _, probe := range probes {
		var ref []string
		for w := 0; w < 4; w++ {
			var wiring [][]int
			if w == 0 {
				wiring = bcc.RotationWiring(8)
			} else {
				wiring = bcc.RandomWiring(8, rng)
			}
			in, err := bcc.NewKT0(bcc.SequentialIDs(8), g, wiring)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bcc.Run(in, probe, bcc.WithCoin(coin))
			if err != nil {
				t.Fatal(err)
			}
			labels, err := bcc.SentTritLabels(res)
			if err != nil {
				t.Fatal(err)
			}
			if w == 0 {
				ref = labels
				continue
			}
			for v := range labels {
				if labels[v] != ref[v] {
					t.Fatalf("%s: vertex %d labels differ across wirings: %q vs %q",
						probe.Name(), v, labels[v], ref[v])
				}
			}
		}
	}
}

func TestTritLabeler(t *testing.T) {
	g, err := graph.FromCycle(7, []int{0, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	labeler := TritLabeler(Silent{T: 3, Answer: bcc.VerdictYes}, 3, nil)
	labels, err := labeler(g)
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != "___" {
			t.Errorf("vertex %d label = %q, want \"___\"", v, l)
		}
	}
}

// TestUpperBoundsBeatFloodShape is the E12 "shape" statement in miniature:
// at n = 64 the log-round algorithms beat the linear baseline, while at
// n = 8 flooding is competitive.
func TestUpperBoundsBeatFloodShape(t *testing.T) {
	nb, err := NewNeighborhoodBroadcast(2)
	if err != nil {
		t.Fatal(err)
	}
	flood, err := NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Rounds(64) >= flood.Rounds(64) {
		t.Errorf("n=64: neighborhood %d rounds should beat flood %d", nb.Rounds(64), flood.Rounds(64))
	}
	if nb.Rounds(8) < flood.Rounds(8)-1 {
		t.Errorf("n=8: expected crossover region, got neighborhood %d vs flood %d", nb.Rounds(8), flood.Rounds(8))
	}
}

func BenchmarkNeighborhoodBroadcast256(b *testing.B) {
	seq := make([]int, 256)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(256, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(256), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := NewNeighborhoodBroadcast(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcc.Run(in, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoruvka256(b *testing.B) {
	seq := make([]int, 256)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(256, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(256), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := NewBoruvka(9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcc.Run(in, algo); err != nil {
			b.Fatal(err)
		}
	}
}
