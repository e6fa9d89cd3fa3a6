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

// Options scales experiment effort: Quick shrinks request counts and
// sweep resolution so the whole suite runs in seconds (used by unit tests
// and the bench harness); the default is the full evaluation.
type Options struct {
	Quick bool
	// Parallel is the number of independent device configurations to
	// simulate concurrently within one experiment (each core.System stays
	// single-threaded; the fan-out is across systems). Values <= 1 run
	// serially. Results are byte-identical at any worker count: every
	// task owns its systems and writes into an index-addressed slot.
	Parallel int
}

// requests returns the per-point request budget.
func (o Options) requests(full int) int {
	if o.Quick {
		q := full / 4
		if q < 600 {
			q = 600
		}
		return q
	}
	return full
}

// depths returns the I/O-depth axis.
func (o Options) depths() []int {
	if o.Quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 24, 32}
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

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
