//go:build !race

// Under the race detector sync.Pool drops items at random, so the
// allocation counts below would see pool misses; these tests run only
// in non-race builds.

package bcclique_test

import (
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
	"bcclique/internal/parallel"
)

// shardLoopProbe is an inert run-bound BCC(2) plane algorithm with
// preallocated nodes: binding it opts a run into intra-cell sharding on
// the word plane, and its nodes speak a 2-bit word every round and
// ignore the planes, so a Run's allocations are exactly the sharded
// plane loop's own.
type shardLoopProbe struct {
	rounds int
	nodes  []bcc.Node
	next   int
}

func (p *shardLoopProbe) Name() string   { return "shard-loop-probe" }
func (p *shardLoopProbe) Bandwidth() int { return 2 }
func (p *shardLoopProbe) Rounds(int) int { return p.rounds }
func (p *shardLoopProbe) BitPlane() bool { return true }
func (p *shardLoopProbe) BindRun(*bcc.Instance, int) bcc.Algorithm {
	p.next = 0
	return p
}
func (p *shardLoopProbe) NewNode(bcc.View, *bcc.Coin) bcc.Node {
	n := p.nodes[p.next]
	p.next = (p.next + 1) % len(p.nodes)
	return n
}

type shardLoopNode struct{}

func (shardLoopNode) Send(int) bcc.Message                    { return bcc.Word(2, 2) }
func (shardLoopNode) Receive(int, []bcc.Message)              {}
func (shardLoopNode) BindPlane(int, []int) bool               { return true }
func (shardLoopNode) SendWord(int) (uint64, bool)             { return 2, true }
func (shardLoopNode) ReceivePlanes(int, [][]uint64, []uint64) {}

// TestShardedRoundLoopAllocationFree pins the intra-cell parallel
// loop's 0-allocs steady-state contract, the sharded sibling of
// TestBitPlaneRoundLoopAllocationFree: with node construction amortized
// and worker sharding forced on, a run's allocation count is a small
// constant independent of the round count — the parked workers are
// the only overhead beyond the result, and no allocation happens per
// round or per phase.
func TestShardedRoundLoopAllocationFree(t *testing.T) {
	const n = 640 // 3 shards of 256: cursor contention plus a ragged tail
	g := graph.New(n)
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	prev := bcc.SetIntraCellMinN(1)
	defer bcc.SetIntraCellMinN(prev)
	parallel.SetLimit(3)
	defer parallel.SetLimit(0)
	allocsAt := func(rounds int) float64 {
		probe := &shardLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
		for i := range probe.nodes {
			probe.nodes[i] = shardLoopNode{}
		}
		// Warm the arena pools before measuring.
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
			if !res.BitPlane || res.TotalBits != 2*n*rounds {
				t.Fatalf("probe run broadcast %d bits (plane %v), want %d on the plane", res.TotalBits, res.BitPlane, 2*n*rounds)
			}
			bcc.Recycle(res)
		})
	}
	short, long := allocsAt(64), allocsAt(4096)
	if long > short {
		t.Errorf("allocations grow with the round count (%.1f at 64 rounds, %.1f at 4096): the sharded round loop allocates", short, long)
	}
	// The constant is the per-run overhead: parked workers, the result
	// and the node table (the plane state itself is pooled). A per-round
	// or per-phase regression would add thousands.
	if long > 48 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", long)
	}
}
