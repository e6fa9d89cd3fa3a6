package main

import (
	"fmt"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/host"
	"amber/internal/sim"
	"amber/internal/workload"
)

// TestRunFlagsValidate pins the up-front flag cross-checks: every rejected
// combination names the offending flag, and a good set yields the parsed
// durations.
func TestRunFlagsValidate(t *testing.T) {
	good := runFlags{requests: 100, blockSize: 4096, depth: 32, devices: 1}
	with := func(edit func(*runFlags)) runFlags {
		f := good
		edit(&f)
		return f
	}
	cases := []struct {
		name       string
		flags      runFlags
		wantErr    string // substring; "" = must pass
		cut, scrub sim.Duration
	}{
		{"batch-submit n=-1", with(func(f *runFlags) { f.batchSubmit, f.requests = true, -1 }), "bad -n -1", 0, 0},
		{"batch-submit n=0", with(func(f *runFlags) { f.batchSubmit, f.requests = true, 0 }), "bad -n 0", 0, 0},
		{"evented n=0", with(func(f *runFlags) { f.requests = 0 }), "bad -n 0", 0, 0},
		{"bs=0", with(func(f *runFlags) { f.blockSize = 0 }), "bad -bs 0", 0, 0},
		{"bs=-512", with(func(f *runFlags) { f.blockSize = -512 }), "bad -bs -512", 0, 0},
		{"depth=0", with(func(f *runFlags) { f.depth = 0 }), "bad -depth 0", 0, 0},
		{"depth=-5", with(func(f *runFlags) { f.depth = -5 }), "bad -depth -5", 0, 0},
		{"batch-submit power-loss", with(func(f *runFlags) { f.batchSubmit, f.powerLossAt = true, "50ms" }), "-power-loss-at are incompatible", 0, 0},
		{"batch-submit scrub", with(func(f *runFlags) { f.batchSubmit, f.scrubEvery = true, "5ms" }), "-scrub-every are incompatible", 0, 0},
		{"bad power-loss duration", with(func(f *runFlags) { f.powerLossAt = "-3ms" }), "bad -power-loss-at", 0, 0},
		{"bad scrub duration", with(func(f *runFlags) { f.scrubEvery = "soon" }), "bad -scrub-every", 0, 0},
		{"negative rain", with(func(f *runFlags) { f.rain = -1 }), "bad -rain", 0, 0},
		{"parallel=-2", with(func(f *runFlags) { f.parallel = -2 }), "bad -parallel -2", 0, 0},
		{"snapshot of two devices", with(func(f *runFlags) { f.snapshot, f.devices = "img", 2 }), "single device", 0, 0},
		{"good evented", with(func(f *runFlags) { f.powerLossAt, f.scrubEvery, f.rain = "50ms", "5ms", 3 }), "", 50 * sim.Millisecond, 5 * sim.Millisecond},
		{"good batch-submit", with(func(f *runFlags) { f.batchSubmit = true }), "", 0, 0},
		{"batch-submit depth", with(func(f *runFlags) { f.batchSubmit, f.set = true, map[string]bool{"depth": true} }), "-depth are incompatible", 0, 0},
		{"batch-submit default depth", with(func(f *runFlags) { f.batchSubmit, f.set = true, map[string]bool{"batch-submit": true, "n": true} }), "", 0, 0},
		{"trace workload", with(func(f *runFlags) { f.trace, f.set = true, map[string]bool{"trace": true, "workload": true} }), "-workload does not apply with -trace", 0, 0},
		{"trace bs", with(func(f *runFlags) { f.trace, f.set = true, map[string]bool{"trace": true, "bs": true} }), "-bs does not apply with -trace", 0, 0},
		{"trace bs=0", with(func(f *runFlags) { f.trace, f.blockSize, f.set = true, 0, map[string]bool{"trace": true, "bs": true} }), "-bs does not apply with -trace", 0, 0},
		{"trace leaves bs unread", with(func(f *runFlags) { f.trace, f.blockSize = true, 0 }), "", 0, 0},
		{"good trace", with(func(f *runFlags) { f.trace, f.set = true, map[string]bool{"trace": true, "depth": true, "n": true} }), "", 0, 0},
	}
	for _, c := range cases {
		cut, scrub, err := c.flags.validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		case err == nil && (cut != c.cut || scrub != c.scrub):
			t.Errorf("%s: parsed durations %v, %v, want %v, %v", c.name, cut, scrub, c.cut, c.scrub)
		}
	}
}

// report runs one preconditioned intel750 workload through runOne and returns
// the report's rows by label.
func report(t *testing.T, pattern workload.Pattern, blockSize, requests int) map[string]string {
	t.Helper()
	var out strings.Builder
	err := runOne("intel750", &out, runOptions{
		sched: host.BFQ, precondition: true, faultProfile: "off",
		pattern: pattern, blockSize: blockSize, seed: 42, requests: requests, depth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows(out.String())
}

// rows splits a report into its rows by label.
func rows(report string) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(report), "\n") {
		label := strings.TrimSpace(line[:16])
		rows[label] = strings.TrimSpace(line[16:])
	}
	return rows
}

// TestBatchSubmitCrossesChunks: -batch-submit hands SubmitBatch its stream
// in chunks of batchChunk requests, so its memory does not grow with -n; a
// run past a chunk boundary prints the bandwidth and latency rows of one
// SubmitBatch call over the same stream.
func TestBatchSubmitCrossesChunks(t *testing.T) {
	const n = batchChunk + 1000
	var out strings.Builder
	err := runOne("zssd", &out, runOptions{
		sched: host.BFQ, faultProfile: "off",
		pattern: workload.RandWrite, blockSize: 4096, seed: 42, requests: n, batchSubmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rows(out.String())

	d, err := config.Device("zssd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.PCSystem(d)
	cfg.Host.Scheduler = host.BFQ
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 42)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = gen.Next(i)
	}
	times := make([]sim.Time, n)
	res := core.RunResult{Requests: n, Depth: 1, BytesWritten: n * 4096, Start: s.Now()}
	if res.End, err = s.SubmitBatch(res.Start, reqs, nil, times); err != nil {
		t.Fatal(err)
	}
	prev := res.Start
	for _, done := range times {
		res.Latency.Add(done - prev)
		prev = done
	}
	want := map[string]string{
		"bandwidth": fmt.Sprintf("%.1f MB/s (%.0f IOPS)", res.BandwidthMBps(), res.IOPS()),
		"latency": fmt.Sprintf("avg %.1f us, p50 %.1f, p95 %.1f, p99 %.1f, max %.1f (percentiles ±0.4 %%)",
			res.AvgLatencyUs(), res.Latency.Percentile(50), res.Latency.Percentile(95),
			res.Latency.Percentile(99), res.Latency.Max()),
	}
	for row, w := range want {
		if got[row] != w {
			t.Errorf("%s row %q, one SubmitBatch call gives %q", row, got[row], w)
		}
	}
}

// TestReportCoversTheMeasuredRun: every row of the report describes the
// measured requests, not the device's history — preconditioning an intel750
// moves 1.18 million descriptors and runs 80 M firmware instructions, which
// used to drown 2 000 requests in the dma, firmware and power rows so that
// any two workloads printed the same ones.
func TestReportCoversTheMeasuredRun(t *testing.T) {
	const n = 2000
	read := report(t, workload.SeqRead, 4096, n)
	write := report(t, workload.RandWrite, 4096, n)
	big := report(t, workload.SeqRead, 16384, n)

	for _, row := range []string{"icl", "firmware", "fil", "power (avg)", "host"} {
		if read[row] == "" || read[row] == write[row] {
			t.Errorf("%s row is %q for seq-read and %q for rand-write: want two different rows", row, read[row], write[row])
		}
	}
	// A 4 KiB request is one host page in either direction — one descriptor,
	// so here the two dma rows agree; four pages make four.
	for name, c := range map[string]struct {
		rows map[string]string
		per  int
	}{"seq-read 4k": {read, 1}, "rand-write 4k": {write, 1}, "seq-read 16k": {big, 4}} {
		var desc, entries int
		if _, err := fmt.Sscanf(c.rows["dma"], "%d descriptors / %d entries", &desc, &entries); err != nil {
			t.Fatalf("%s: dma row %q: %v", name, c.rows["dma"], err)
		}
		if desc != c.per*n || entries != c.per*n {
			t.Errorf("%s: dma row %q, want %d descriptors and entries for %d requests", name, c.rows["dma"], c.per*n, n)
		}
		var minstr float64
		if _, err := fmt.Sscanf(c.rows["firmware"], "%fM instructions", &minstr); err != nil {
			t.Fatalf("%s: firmware row %q: %v", name, c.rows["firmware"], err)
		}
		if per := minstr * 1e6 / n; per < 1000 || per > 5000 {
			t.Errorf("%s: firmware row %q is %.0f instructions a request, want the low thousands", name, c.rows["firmware"], per)
		}
	}
}

// TestLatencyRowStatesBound pins the latency row's shape: the exact average,
// three ordered percentiles, the exact maximum, and the histogram's stated
// percentile bound.
func TestLatencyRowStatesBound(t *testing.T) {
	row := report(t, workload.RandRead, 4096, 500)["latency"]
	const bound = " (percentiles ±0.4 %)"
	var avg, p50, p95, p99, most float64
	if _, err := fmt.Sscanf(strings.TrimSuffix(row, bound), "avg %f us, p50 %f, p95 %f, p99 %f, max %f", &avg, &p50, &p95, &p99, &most); err != nil {
		t.Fatalf("latency row %q: %v", row, err)
	}
	if !strings.HasSuffix(row, bound) {
		t.Errorf("latency row %q does not end with %q", row, bound)
	}
	if !(0 < p50 && p50 <= p95 && p95 <= p99 && p99 <= most && avg <= most) {
		t.Errorf("latency row %q: want 0 < p50 <= p95 <= p99 <= max and avg <= max", row)
	}
}
