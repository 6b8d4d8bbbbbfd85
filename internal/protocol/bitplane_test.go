package protocol

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bcclique/internal/family"
)

// TestBitPlaneProtocolEquivalence pins, for every plane protocol × a
// family sample × several seeds, the full sweep-visible Outcome of the
// word plane byte-identical to the per-port reference oracle —
// verdicts, labels, RoundBits, TotalBits, correctness and refusal
// flags. This is the protocol-level half of the equivalence suite
// guaranteeing that extending the sweep ladders onto the bit plane
// cannot change any pre-existing E17/E18 row.
func TestBitPlaneProtocolEquivalence(t *testing.T) {
	protocols := []string{"flood-b1", "kt0-exchange", "neighborhood", "boruvka", "sketch-a1", "sketch-a2"}
	families := []string{"two-cycle", "er-threshold", "planted-2"}
	// 24 exercises the single-word plane, 72 the multi-word layout.
	for _, n := range []int{24, 72} {
		runBitPlaneProtocolEquivalence(t, protocols, families, n)
	}
}

func runBitPlaneProtocolEquivalence(t *testing.T, protocols, families []string, n int) {
	for _, protoName := range protocols {
		p, ok := Lookup(protoName)
		if !ok {
			if protoName == "neighborhood" {
				p = Neighborhood{}
				ok = true
			}
		}
		if !ok {
			t.Fatalf("protocol %q not registered", protoName)
		}
		for _, famName := range families {
			f, ok := family.Lookup(famName)
			if !ok {
				t.Fatalf("family %q not registered", famName)
			}
			for _, seed := range []int64{1, 2, 5} {
				t.Run(fmt.Sprintf("%s/%s/n%d/seed%d", protoName, famName, n, seed), func(t *testing.T) {
					g, err := f.Build(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					fast, err := p.Run(context.Background(), g, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !fast.BitPlane {
						t.Fatal("fast run did not engage the plane")
					}
					referenceOracle = true
					oracle, err := p.Run(context.Background(), g, seed)
					referenceOracle = false
					if err != nil {
						t.Fatal(err)
					}
					if oracle.BitPlane {
						t.Fatal("oracle run engaged the plane despite referenceOracle")
					}
					// Outcomes must agree on everything but the path marker.
					oracle.BitPlane = fast.BitPlane
					if !reflect.DeepEqual(fast, oracle) {
						t.Fatalf("outcomes diverge:\nfast   %+v\noracle %+v", fast, oracle)
					}
				})
			}
		}
	}
}
