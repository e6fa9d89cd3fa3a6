// Package exp regenerates every table and figure of the paper's
// evaluation (§V): each Figure*/Table* function runs the corresponding
// experiment on the simulator and returns a printable table with the same
// rows/series the paper reports. cmd/amberbench and the root bench suite
// are thin wrappers over this package.
package exp

import (
	"fmt"
	"io"
	"strings"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // "fig8", "table1", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Options configures how an experiment runs; every experiment has one
// configuration, the full evaluation, so no option changes a result.
type Options struct {
	// Parallel is the number of independent device configurations to
	// simulate concurrently within one experiment (each core.System stays
	// single-threaded; the fan-out is across systems). Values <= 1 run
	// serially. Results are byte-identical at any worker count: every
	// task owns its systems and writes into an index-addressed slot.
	Parallel int
}

// patterns is the four-panel microbenchmark set of Figs. 3/4/8/9/10.
func patterns() []workload.Pattern {
	return []workload.Pattern{workload.SeqRead, workload.RandRead, workload.SeqWrite, workload.RandWrite}
}

// newSystem builds a preconditioned PC-platform system around the device.
func newSystem(deviceName string, mutate func(*core.SystemConfig)) (*core.System, error) {
	d, err := config.Device(deviceName)
	if err != nil {
		return nil, err
	}
	cfg := config.PCSystem(d)
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Precondition(32); err != nil {
		return nil, err
	}
	return s, nil
}

// runPoint measures one (pattern, depth) point.
func runPoint(s *core.System, p workload.Pattern, blockSize, depth, n int) (*core.RunResult, error) {
	gen, err := workload.NewFIO(p, blockSize, s.VolumeBytes(), 11)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: depth})
	if err != nil {
		return nil, err
	}
	s.Drain()
	return res, nil
}

// sweepRequests is the request count of every microbenchmark point, and of
// the baseline replays Figs. 3/4 set beside them.
const sweepRequests = 2000

// protocolNote states, under each figure that reads the sweep, how its points
// were measured.
var protocolNote = fmt.Sprintf("protocol: every point runs on its own freshly built and preconditioned device, "+
	"n = %d requests (n/4 at 256 KiB and above), write buffer clean at the start (burst state).", sweepRequests)

// point is one microbenchmark operating point of Figs. 3/4/8/9/10.
type point struct {
	device    string
	pattern   workload.Pattern
	blockSize int // bytes
	depth     int
}

// measure is what the figures read of a point.
type measure struct {
	bandwidthMBps float64
	latencyUs     float64 // mean
}

// value is the bandwidth (MB/s), or with latency the mean latency (us).
func (m measure) value(latency bool) float64 {
	if latency {
		return m.latencyUs
	}
	return m.bandwidthMBps
}

// grid lists every (device, pattern, block size, depth) point of the axes,
// in that nesting order, over the four patterns.
func grid(devices []string, blockSizes, depths []int) []point {
	var pts []point
	for _, dev := range devices {
		for _, p := range patterns() {
			for _, bs := range blockSizes {
				for _, d := range depths {
					pts = append(pts, point{dev, p, bs, d})
				}
			}
		}
	}
	return pts
}

// sweep memoises microbenchmark points, so that every figure reading an
// operating point prints the same number and no point is computed twice.
// Every point runs on its own freshly built and preconditioned system (the
// paper's FIO method: precondition, then measure each configuration), which
// makes a point independent of which others ran before it. A sweep is not
// safe for concurrent use: All's entries share one and run one at a time.
type sweep struct {
	done map[point]measure
}

func newSweep() *sweep { return &sweep{done: map[point]measure{}} }

// run computes the points of pts that are not yet memoised, fanned out over
// o's workers, and returns every point's result.
func (s *sweep) run(o Options, pts []point) (map[point]measure, error) {
	var missing []point
	queued := map[point]bool{}
	for _, p := range pts {
		if _, ok := s.done[p]; !ok && !queued[p] {
			queued[p] = true
			missing = append(missing, p)
		}
	}
	got := make([]measure, len(missing))
	err := forEach(o, len(missing), func(i int) error {
		p := missing[i]
		sys, err := newSystem(p.device, nil)
		if err != nil {
			return err
		}
		n := sweepRequests
		if p.blockSize >= 256<<10 {
			n /= 4 // large blocks move 64x the data per request
		}
		res, err := runPoint(sys, p.pattern, p.blockSize, p.depth, n)
		if err != nil {
			return err
		}
		got[i] = measure{res.BandwidthMBps(), res.AvgLatencyUs()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range missing {
		s.done[p] = got[i]
	}
	return s.done, nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
