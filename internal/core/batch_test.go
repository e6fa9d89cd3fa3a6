package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// batchTrajectory builds the mixed request vector the SubmitBatch golden
// comparison replays: a GC-heavy 4K random-write stream with a random read
// every fifth request (forcing the evented fallback mid-window) and a
// sequential read tail (readahead prefetches, so fills are in flight when
// later requests arrive). Writes carry deterministic payloads; reads
// receive buffers whose bytes are part of the golden comparison.
func batchRequests(s *core.System) ([]workload.Request, [][]byte, error) {
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		return nil, nil, err
	}
	rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 7)
	if err != nil {
		return nil, nil, err
	}
	sgen, err := workload.NewFIO(workload.SeqRead, 16384, s.VolumeBytes(), 9)
	if err != nil {
		return nil, nil, err
	}
	var reqs []workload.Request
	for i := 0; i < 300; i++ {
		if i%5 == 4 {
			reqs = append(reqs, rgen.Next(i))
		} else {
			reqs = append(reqs, wgen.Next(i))
		}
	}
	for i := 0; i < 40; i++ {
		reqs = append(reqs, sgen.Next(i))
	}
	datas := make([][]byte, len(reqs))
	for i, req := range reqs {
		buf := make([]byte, req.Length)
		if req.Write {
			for j := range buf {
				buf[j] = byte((int64(j) + req.Offset + int64(i)*131) % 251)
			}
		}
		datas[i] = buf
	}
	return reqs, datas, nil
}

// renderBatchRun fingerprints everything the two submit APIs must agree
// on: each request's completion time, every read payload, and the full
// component state (flash counters and energy, FTL/ICL/FIL stats, clock).
func renderBatchRun(out *bytes.Buffer, s *core.System, reqs []workload.Request, datas [][]byte, times []sim.Time) {
	for i, tm := range times {
		fmt.Fprintf(out, "req%d done %d\n", i, tm)
	}
	for i, req := range reqs {
		if req.Write {
			continue
		}
		sum := uint64(0)
		for j, b := range datas[i] {
			sum += uint64(b) * uint64(j+1)
		}
		fmt.Fprintf(out, "read%d sum %d\n", i, sum)
	}
	renderState(out, s)
}

// TestSubmitBatchGoldenEquivalence is the acceptance bar of the vectored
// submit API: SubmitBatch over a mixed read/write vector must produce
// byte-identical completion times, payload bytes, component statistics and
// energy versus the same requests pushed one at a time through Submit, the
// evented reference the inline path is proven against.
func TestSubmitBatchGoldenEquivalence(t *testing.T) {
	run := func(batched bool) string {
		s := wideSystem(t)
		if err := s.Precondition(16); err != nil {
			t.Fatal(err)
		}
		reqs, datas, err := batchRequests(s)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]sim.Time, len(reqs))
		if batched {
			// Batch in chunks so window boundaries are exercised mid-vector
			// as well as at the trailing partial window. The completions
			// out-param exposes every per-request stamp, so the two legs
			// compare all of them one-to-one.
			chunk := 64
			idx := 0
			for idx < len(reqs) {
				end := idx + chunk
				if end > len(reqs) {
					end = len(reqs)
				}
				done, err := s.SubmitBatch(s.Now(), reqs[idx:end], datas[idx:end], times[idx:end])
				if err != nil {
					t.Fatal(err)
				}
				if done != times[end-1] {
					t.Fatalf("chunk-final completion %d != times[%d]=%d", done, end-1, times[end-1])
				}
				idx = end
			}
		} else {
			for i, req := range reqs {
				done, err := s.Submit(s.Now(), req, datas[i])
				if err != nil {
					t.Fatal(err)
				}
				times[i] = done
			}
		}
		var out bytes.Buffer
		renderBatchRun(&out, s, reqs, datas, times)
		if batched {
			if windows, requests := s.BatchStats(); windows == 0 || requests != uint64(len(reqs)) {
				t.Fatalf("batch counters degenerate: windows=%d requests=%d", windows, requests)
			}
		}
		return out.String()
	}
	serial := run(false)
	if len(serial) == 0 {
		t.Fatal("empty golden")
	}
	if got := run(true); got != serial {
		t.Fatalf("SubmitBatch diverged from per-request Submit:\n--- serial ---\n%s--- batched ---\n%s", serial, got)
	}
}
