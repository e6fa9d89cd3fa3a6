package exp

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"amber/internal/refdata"
	"amber/internal/workload"
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
	// experiments', so -race runs skip them. Figs. 3/4/8/9/10 read one
	// sweep of fresh points, whose fan-out TestSweepComputesEachPointOnce
	// covers under -race with a handful of points.
	heavy := map[string]bool{"fig3": true, "fig4": true, "fig8": true, "fig9": true, "fig10": true, "fig11": true, "fig12": true, "fig15a": true}
	tabs := map[string]*Table{}
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
			tabs[e.ID] = tab
		})
	}
	for _, id := range []string{"fig3", "fig4", "fig8", "fig9", "fig10"} {
		if tabs[id] == nil {
			return // skipped or failed above
		}
	}

	// Figs. 3/4/8/9/10 are views of one sweep: an operating point prints
	// the same number in every figure that shows it.
	nd := len(refdata.Depths)
	intel750Amber := func(id string) [][]string {
		var out [][]string
		for _, r := range tabs[id].Rows {
			if id == "fig3" || id == "fig4" {
				r = append([]string{"intel750"}, r...) // Figs. 8/9's device column
			}
			if r[0] == "intel750" && r[2] == "amber" {
				out = append(out, r[3:3+nd])
			}
		}
		if len(out) != 4 {
			t.Fatalf("%s: %d intel750 amber rows, want one per pattern", id, len(out))
		}
		return out
	}
	if got, want := intel750Amber("fig3"), intel750Amber("fig8"); !reflect.DeepEqual(got, want) {
		t.Errorf("fig3 amber rows %v, fig8 intel750 amber rows %v", got, want)
	}
	// Fig. 4 prints latency to 0.1 us and Fig. 9 to 1 us.
	fig4, fig9 := intel750Amber("fig4"), intel750Amber("fig9")
	for i := range fig4 {
		for j := range fig4[i] {
			a, errA := strconv.ParseFloat(fig4[i][j], 64)
			b, errB := strconv.ParseFloat(fig9[i][j], 64)
			if errA != nil || errB != nil || math.Abs(a-b) > 0.55 {
				t.Errorf("fig4 amber row %d qd%d = %s, fig9 intel750 = %s", i, refdata.Depths[j], fig4[i][j], fig9[i][j])
			}
		}
	}
	for i, r := range tabs["fig10"].Rows {
		if f8 := tabs["fig8"].Rows[i]; r[0] != f8[0] || r[1] != f8[1] || r[2] != f8[2] || (r[2] == "amber" && r[3] != f8[2+nd]) {
			t.Errorf("fig10 row %v: 4K cell %s, fig8 row %v: qd32 cell %s", r[:3], r[3], f8[:3], f8[2+nd])
		}
	}
}

// TestSweepComputesEachPointOnce asks one sweep for two overlapping point
// sets over two workers: every value equals a serial run of its point on a
// fresh system, a point listed twice is computed once, and the second
// request, whose points the first already measured, computes none.
func TestSweepComputesEachPointOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three points twice")
	}
	pts := []point{
		{"intel750", workload.RandRead, 4096, 1},
		{"850pro", workload.SeqWrite, 4096, 32},
		{"zssd", workload.RandWrite, 256 << 10, 32},
		{"intel750", workload.RandRead, 4096, 1},
	}
	want := map[point]measure{}
	for _, p := range pts[:3] {
		res, err := newSweep().run(Options{}, []point{p})
		if err != nil {
			t.Fatal(err)
		}
		want[p] = res[p]
	}

	sw := newSweep()
	o := Options{Parallel: 2}
	for _, req := range [][]point{pts, pts[1:]} {
		res, err := sw.run(o, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range req {
			if res[p] != want[p] {
				t.Errorf("%+v: %+v over 2 workers, %+v serially", p, res[p], want[p])
			}
		}
		if len(sw.done) != 3 {
			t.Fatalf("sweep holds %d points after asking for %v, want the 3 distinct ones of the first request", len(sw.done), req)
		}
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
