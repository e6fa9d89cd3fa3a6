package exp

import (
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/ftl"
	"amber/internal/refdata"
	"amber/internal/workload"
)

// tablePins holds the FNV-64a of each experiment's rendered table. Every
// table is a pure function of the model and the experiment's cells except
// fig16's, whose rows are host wall-clock times and which is not pinned. A
// change that moves a table on purpose updates its line from the failure
// message, which prints the table and its digest.
var tablePins = map[string]uint64{
	"table1": 0x8adfbc21ae250109,
	"fig3":   0xa5edee8111a7d38e,
	"fig4":   0xbcab231fac6b8e0f,
	"fig8":   0x431b3ce830480014,
	"fig9":   0x4d6fc46d284b8870,
	"fig10":  0x9f625f8267715126,
	"fig11":  0x8a59dbf9c1f40034,
	"fig12":  0xa2c7578238cc7788,
	"fig13a": 0xc11a050e1860804d,
	"fig13b": 0x706f2385047f3730,
	"fig13c": 0x3fb0b9728b1a77f0,
	"fig14":  0xe629107299ea0ea1,
	"fig15a": 0xd01950d4b1b0c1a1,
	"fig15b": 0x2446e9d0bcf2aa90,
	"fig15c": 0x87a17d9f43de4e99,
	"table4": 0x9d76b0a30db63a30,
}

// wallClock is the one experiment whose table is not pinned.
const wallClock = "fig16"

// TestAllExperimentsRun is the integration smoke test: every table/figure
// regenerates without error at full resolution, fanned out over
// AutoParallel workers, and renders to the text tablePins holds.
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
			if e.ID != wallClock {
				h := fnv.New64a()
				h.Write([]byte(out))
				if got, want := h.Sum64(), tablePins[e.ID]; got != want {
					t.Errorf("table digest %#x, pinned %#x:\n%s", got, want, out)
				}
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

// TestRefusedWarmupIsAnError builds a cell on a worn-out device that
// latches read-only during its warm-up: the cell fails with ftl.ErrReadOnly
// rather than measuring a read-only device.
func TestRefusedWarmupIsAnError(t *testing.T) {
	faults, err := config.FaultProfile("wearout", 7)
	if err != nil {
		t.Fatal(err)
	}
	wornOut := func(c *core.SystemConfig) {
		c.Device = config.SmallTestDevice()
		c.Device.TrackData = false
		c.Device.OPRatio = 0.4
		c.Device.SpareBlocks = 4
		c.Device.Faults = faults
	}
	_, err = runCells(Options{}, []cell{{
		device:  "intel750",
		mutate:  wornOut,
		warmup:  fio(workload.RandWrite, 4096, 16, 8000, 3),
		measure: fio(workload.RandRead, 4096, 1, 10, fioSeed),
	}})
	if !errors.Is(err, ftl.ErrReadOnly) || !strings.Contains(err.Error(), "warm-up") {
		t.Fatalf("runCells = %v, want the warm-up's error wrapping ftl.ErrReadOnly", err)
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
