package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bcclique/internal/engine"
)

// TestE17KT0GoldenCSV pins the kt0-exchange rows of E17 on the paper's
// hard instance and on the irregular er-threshold family, where the
// phase-2 stream spans several words, at every size up to 2048. The
// golden CSV predates the multi-word stream (wide cells then took a
// per-replica output path); the rows must not move, since cached cells
// keep their content addresses.
func TestE17KT0GoldenCSV(t *testing.T) {
	if raceEnabled {
		t.Skip("2048-vertex cells are disproportionate under the race detector")
	}
	if testing.Short() {
		t.Skip("E17 kt0-exchange golden skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/e17_kt0_seed1.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	grid, ok := eng.LookupGrid("E17")
	if !ok {
		t.Fatal("no E17 grid")
	}
	grid, err = grid.Restrict([]string{"kt0-exchange"}, []string{"two-cycle", "er-threshold"},
		[]int{16, 32, 64, 128, 256, 512, 1024, 2048})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, flush, err := grid.CSVSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunGrid(t.Context(), grid, engine.Config{Seed: 1}, nil, sink); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotRows) || i < len(wantRows); i++ {
			var g, w string
			if i < len(gotRows) {
				g = gotRows[i]
			}
			if i < len(wantRows) {
				w = wantRows[i]
			}
			if g != w {
				t.Errorf("row %d:\n got  %q\n want %q", i, g, w)
			}
		}
	}
}
