package stats_test

import (
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/workload"
)

// TestLatencyConstantMemory: a run's latency histogram costs what the
// latencies' range costs, not what their number does — runs of N and 8N
// requests on one device end with the same footprint, a few KiB.
func TestLatencyConstantMemory(t *testing.T) {
	s, err := core.NewSystem(config.PCSystem(config.SmallTestDevice()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	// Reads of the first 64 KiB, which the cache holds once a warm-up run has
	// loaded it: the latencies of every later run span the same range.
	gen, err := workload.NewFIO(workload.RandRead, 4096, 64<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	if _, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 8}); err != nil {
		t.Fatal(err)
	}
	var bytes [2]int
	for i, reqs := range []int{n, 8 * n} {
		res, err := s.Run(gen, core.RunConfig{Requests: reqs, IODepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.Count() != reqs {
			t.Fatalf("run of %d: %d latencies", reqs, res.Latency.Count())
		}
		bytes[i] = res.Latency.Footprint()
	}
	if bytes[0] != bytes[1] || bytes[1] > 16<<10 {
		t.Fatalf("histogram footprint %d B after %d requests, %d B after %d: want equal and a few KiB", bytes[0], n, bytes[1], 8*n)
	}
}
