//go:build !race

// Under the race detector sync.Pool drops items at random, so the
// allocation counts below would see pool misses; these tests run only
// in non-race builds.

package bcclique_test

import (
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// TestBitPlaneRoundLoopAllocationFree pins the bit plane's 0-allocs
// steady-state contract the direct way: with node construction
// amortized (preallocated inert nodes) and the arena pools warm, a
// run's allocation count is a small constant independent of the round
// count — i.e. the round loop itself (send, plane clear, popcount,
// delivery) allocates nothing.
func TestBitPlaneRoundLoopAllocationFree(t *testing.T) {
	const n = 256
	g := graph.New(n)
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(rounds int) float64 {
		probe := &bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
		for i := range probe.nodes {
			probe.nodes[i] = bitLoopNode{}
		}
		// Warm the plane and scratch pools before measuring.
		res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		bcc.Recycle(res)
		return testing.AllocsPerRun(10, func() {
			res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
			if err != nil {
				t.Fatal(err)
			}
			if !res.BitPlane {
				t.Fatal("probe must ride the bit plane")
			}
			bcc.Recycle(res)
		})
	}
	short, long := allocsAt(64), allocsAt(4096)
	if long > short {
		t.Errorf("allocations grow with the round count (%.1f at 64 rounds, %.1f at 4096): the round loop allocates", short, long)
	}
	// The constant itself is the per-run overhead (result struct, node
	// tables); a generous bound catches any per-round regression, which
	// would add thousands.
	if long > 16 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", long)
	}
}
