package exp

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun is the integration smoke test: every table/figure
// regenerates without error at full resolution, fanned out over
// AutoParallel workers, and produces plausible content.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds each")
	}
	o := Options{Parallel: AutoParallel()}
	// The slowest sweeps take minutes each under the race detector (5-10x
	// slowdown), which blows the package past the test timeout on slow
	// hosts; their dispatch machinery is identical to the cheap
	// experiments', so -race runs skip them.
	// fig8 duplicates fig9's machinery (same validation sweep, bandwidth vs
	// latency view), so skipping it costs no race coverage.
	heavy := map[string]bool{"fig3": true, "fig4": true, "fig8": true, "fig10": true, "fig11": true, "fig12": true, "fig15a": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if raceDetectorEnabled && heavy[e.ID] {
				t.Skip("multi-minute sweep skipped under -race")
			}
			tab, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			out := tab.String()
			if !strings.Contains(out, tab.Title) {
				t.Fatal("render missing title")
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	out := tab.String()
	for _, want := range []string{"== x: T ==", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestParallelDeterminism locks in the harness guarantee: an experiment
// fanned out over workers produces a table byte-identical to the serial
// run, because every task owns its systems and writes into an
// index-addressed slot.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig. 14 twice")
	}
	serial, err := Figure14(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure14(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	errs := []error{nil, errTest(1), errTest(2)}
	got := forEach(Options{Parallel: 3}, 3, func(i int) error { return errs[i] })
	if got != errs[1] {
		t.Fatalf("forEach returned %v, want the lowest-index error %v", got, errs[1])
	}
	if err := forEach(Options{}, 3, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

type errTest int

func (e errTest) Error() string { return "task error" }
