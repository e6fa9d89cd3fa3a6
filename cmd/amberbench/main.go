// Command amberbench regenerates the paper's tables and figures
// (§V evaluation): every experiment prints the same rows/series the paper
// reports, computed by the simulator.
//
// Usage:
//
//	amberbench                  # run everything
//	amberbench -only fig8,fig9  # a subset
//	amberbench -parallel 8      # fan independent device sims out over 8 workers (-1 = NumCPU)
//	amberbench -json out.json   # the same tables, machine-readable
//	amberbench -list
//
// Every experiment has one configuration, the full evaluation. The -parallel
// fan-out is across independent core.System configurations inside each
// experiment and is byte-identical to a serial run at any worker count.
// Positional arguments are rejected: pick experiments with -only. Host
// speed is measured elsewhere: bench/ (bash bench/run.sh) for the
// end-to-end workloads, go test -bench in the root package for the
// microbenchmarks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"amber/internal/exp"
)

// jsonReport is the machine-readable -json output: the experiment tables
// with the wall time each took. Figs. 3/4/8/9/10 share their points, so a
// shared point's time is charged to the first of them that runs.
type jsonReport struct {
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	NumCPU      int              `json:"num_cpu"`
	Parallel    int              `json:"parallel"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	WallSeconds float64    `json:"wall_seconds"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
	Notes       []string   `json:"notes"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amberbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("only", "", "comma-separated experiment ids (default: all)")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", 0, "workers for independent device sims per experiment (0 = serial, -1 = NumCPU)")
		jsonOut  = fs.String("json", "", "write the experiment tables, machine-readable, to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Experiments are chosen with -only; a stray word would otherwise be
	// ignored and the whole suite run.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "amberbench: unexpected argument %q (use -only)\n", fs.Arg(0))
		return 2
	}
	if *parallel < -1 {
		fmt.Fprintf(stderr, "amberbench: bad -parallel %d: want -1 (NumCPU) or a non-negative worker count\n", *parallel)
		return 2
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}

	workers := *parallel
	if workers == -1 {
		workers = exp.AutoParallel()
	}

	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, e := range exp.All() {
			known[e.ID] = true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(stderr, "amberbench: unknown experiment id %q (see -list)\n", id)
				return 2
			}
			want[id] = true
		}
	}

	// The report file is created before the first experiment: an unwritable
	// path must not cost the suite's run time first.
	var jsonFile *os.File
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(stderr, "amberbench: %v\n", err)
			return 1
		}
		jsonFile = f
	}

	o := exp.Options{Parallel: workers}
	report := jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Parallel:    workers,
	}
	failed := 0
	for _, e := range exp.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		t, err := e.Run(o)
		if err != nil {
			fmt.Fprintf(stderr, "amberbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		wall := time.Since(start)
		t.Fprint(stdout)
		fmt.Fprintf(stdout, "  [%s completed in %v]\n\n", e.ID, wall.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: t.ID, Title: t.Title, WallSeconds: wall.Seconds(),
			Header: t.Header, Rows: t.Rows, Notes: t.Notes,
		})
	}

	if jsonFile != nil {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err == nil {
			_, err = jsonFile.Write(append(data, '\n'))
		}
		if err == nil {
			err = jsonFile.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "amberbench: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
