// Command amberbench regenerates the paper's tables and figures
// (§V evaluation): every experiment prints the same rows/series the paper
// reports, computed by the simulator.
//
// Usage:
//
//	amberbench                  # run everything (full resolution)
//	amberbench -quick           # reduced request counts / sweep resolution
//	amberbench -only fig8,fig9  # a subset
//	amberbench -parallel 8      # fan independent device sims out over 8 workers
//	amberbench -intra-parallel 4 # channel shards step concurrently inside each run
//	amberbench -json out.json   # the same tables, machine-readable
//	amberbench -list
//
// The -parallel fan-out is across independent core.System configurations
// inside each experiment; -intra-parallel additionally parallelizes the
// event dispatch inside each measured run between synchronization horizons
// (sim.Engine.RunParallel). Both are byte-identical to a serial run at any
// worker count. Host speed is measured elsewhere: bench/ (bash bench/run.sh)
// for the end-to-end workloads, go test -bench in the root package for the
// microbenchmarks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"amber/internal/exp"
)

// jsonReport is the machine-readable -json output: the experiment tables
// with the wall time each took.
type jsonReport struct {
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	NumCPU      int              `json:"num_cpu"`
	Parallel    int              `json:"parallel"`
	Quick       bool             `json:"quick"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	WallSeconds float64    `json:"wall_seconds"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced request counts and sweep resolution")
		only     = flag.String("only", "", "comma-separated experiment ids (default: all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", 0, "workers for independent device sims per experiment (0 = serial, -1 = NumCPU)")
		intraPar = flag.Int("intra-parallel", 0, "workers for horizon-synchronized dispatch inside each measured run (channel shards step concurrently; byte-identical tables; 0/1 = serial)")
		jsonOut  = flag.String("json", "", "write the experiment tables, machine-readable, to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Println(e.ID)
		}
		return
	}

	workers := *parallel
	if workers < 0 {
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
				fmt.Fprintf(os.Stderr, "amberbench: unknown experiment id %q (see -list)\n", id)
				os.Exit(2)
			}
			want[id] = true
		}
	}

	o := exp.Options{Quick: *quick, Parallel: workers, IntraWorkers: *intraPar}
	report := jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Parallel:    workers,
		Quick:       *quick,
	}
	failed := 0
	for _, e := range exp.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		t, err := e.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amberbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		wall := time.Since(start)
		t.Fprint(os.Stdout)
		fmt.Printf("  [%s completed in %v]\n\n", e.ID, wall.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: t.ID, Title: t.Title, WallSeconds: wall.Seconds(),
			Header: t.Header, Rows: t.Rows,
		})
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "amberbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "amberbench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
