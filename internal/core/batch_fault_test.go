package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/ftl"
	"amber/internal/sim"
	"amber/internal/workload"
)

// wearoutSystem builds the end-of-life device shape of Example_faults
// (examples/faults_test.go): blocks wear out after ~50 erases and the spare
// reserve is small, so a sustained overwrite storm deterministically
// exhausts the spares and latches the FTL read-only mid-traffic.
func wearoutSystem(t *testing.T) *core.System {
	t.Helper()
	d := config.SmallTestDevice()
	d.TrackData = false
	d.OPRatio = 0.4
	faults, err := config.FaultProfile("wearout", 7)
	if err != nil {
		t.Fatal(err)
	}
	d.Faults = faults
	d.SpareBlocks = 4
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSubmitBatchMidWindowReadOnlyFault drives a wear-out trajectory
// through SubmitBatch until the spare reserve runs dry inside a window:
// the write that hits the latch must fail with ftl.ErrReadOnly wrapped
// under its batch index, earlier requests in the same window stay applied
// with their real completion times, the failing request and everything
// after it hold the zero times sentinel, and the device neither panics
// nor desyncs — afterwards the clock stays monotonic, every later batched
// write is refused with the same sentinel, and reads (standalone and
// leading a mixed batch) keep serving.
func TestSubmitBatchMidWindowReadOnlyFault(t *testing.T) {
	batch := wearoutSystem(t)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, batch.VolumeBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}

	const window = 64
	reqs := make([]workload.Request, window)
	times := make([]sim.Time, window)
	failIdx := -1 // global index of the first refused write
	next := 0
	for round := 0; round < 400 && failIdx < 0; round++ {
		for j := range reqs {
			reqs[j] = gen.Next(next + j)
			times[j] = 12345 // poison: every slot must be overwritten or zeroed
		}
		_, err := batch.SubmitBatch(batch.Now(), reqs, nil, times)
		if err == nil {
			next += window
			continue
		}
		if !errors.Is(err, ftl.ErrReadOnly) {
			t.Fatalf("batch failed with %v, want the read-only latch", err)
		}
		k := 0
		for k < window && times[k] != 0 {
			k++
		}
		if k == window {
			t.Fatalf("batch returned %v but zeroed no times slot", err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("batch request %d", k)) {
			t.Fatalf("error %q does not carry the failing index %d", err, k)
		}
		var prev sim.Time
		for j := 0; j < k; j++ {
			if times[j] == 0 || times[j] == 12345 || times[j] < prev {
				t.Fatalf("completed prefix corrupted: times[%d] = %d (prev %d)", j, times[j], prev)
			}
			prev = times[j]
		}
		for j := k; j < window; j++ {
			if times[j] != 0 {
				t.Fatalf("stale completion after failure: times[%d] = %d, want the zero sentinel", j, times[j])
			}
		}
		failIdx = next + k
	}
	if failIdx < 0 {
		t.Fatal("device refused to latch read-only; raise the wear-out rates")
	}
	if !batch.FTL.ReadOnly() {
		t.Fatal("batch reported the latch but the FTL is not read-only")
	}

	// No desync: the clock is intact (monotonic, not rewound by the failed
	// window), a standalone read still serves, a standalone write is
	// refused with the same sentinel.
	clk := batch.Now()
	if _, err := batch.Submit(batch.Now(), workload.Request{Offset: 0, Length: 4096}, nil); err != nil {
		t.Fatalf("read after latch failed: %v", err)
	}
	if batch.Now() < clk {
		t.Fatalf("clock rewound after the failed window: %d -> %d", clk, batch.Now())
	}
	if _, err := batch.Submit(batch.Now(), workload.Request{Write: true, Offset: 0, Length: 4096}, nil); !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("write after latch = %v, want ftl.ErrReadOnly", err)
	}

	// A fresh mixed batch behaves the same way on the worn device: the
	// leading reads complete with real stamps, the write is refused under
	// its index, the trailing slot holds the sentinel.
	mixed := []workload.Request{
		{Offset: 0, Length: 4096},
		{Offset: 4096, Length: 4096},
		{Write: true, Offset: 8192, Length: 4096},
		{Offset: 12288, Length: 4096},
	}
	mt := []sim.Time{7, 7, 7, 7}
	if _, err := batch.SubmitBatch(batch.Now(), mixed, nil, mt); !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("mixed batch after latch = %v, want ftl.ErrReadOnly", err)
	} else if !strings.Contains(err.Error(), "batch request 2") {
		t.Fatalf("mixed batch error %q does not name the write's index", err)
	}
	if mt[0] == 0 || mt[1] < mt[0] || mt[2] != 0 || mt[3] != 0 {
		t.Fatalf("mixed batch times contract violated: %v", mt)
	}
}

// TestSubmitBatchTimesZeroSentinel pins the documented times contract on
// a crisp deterministic failure: a batch of [read, read, write, read]
// against a force-latched device completes the leading reads with real
// stamps, fails the write under its index, and zeroes the write's slot
// and every slot after it — even when the buffer arrives poisoned from a
// previous batch.
func TestSubmitBatchTimesZeroSentinel(t *testing.T) {
	s := smallSystem(t, nil)
	bs := 4096
	// Map the LBAs the reads will hit.
	if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: 0, Length: 4 * bs}, nil); err != nil {
		t.Fatal(err)
	}
	s.FTL.ForceReadOnly()
	s.ICL.SetPreferCleanVictims(true)

	reqs := []workload.Request{
		{Offset: 0, Length: bs},
		{Offset: int64(bs), Length: bs},
		{Write: true, Offset: 2 * int64(bs), Length: bs},
		{Offset: 3 * int64(bs), Length: bs},
	}
	times := []sim.Time{7, 7, 7, 7}
	_, err := s.SubmitBatch(s.Now(), reqs, nil, times)
	if !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("batch = %v, want the read-only latch", err)
	}
	if !strings.Contains(err.Error(), "batch request 2") {
		t.Fatalf("error %q does not name the failing request", err)
	}
	if times[0] == 0 || times[1] < times[0] {
		t.Fatalf("leading reads lost their completions: %v", times)
	}
	if times[2] != 0 || times[3] != 0 {
		t.Fatalf("failed and unreached slots must hold the zero sentinel: %v", times)
	}
}

// TestSubmitBatchShortDataVector pins the up-front length check on datas: a
// non-nil payload vector shorter than the request vector is refused before
// anything is applied, like a short times buffer — not discovered by an
// index panic after the leading requests already landed.
func TestSubmitBatchShortDataVector(t *testing.T) {
	s := smallSystem(t, nil)
	bs := 4096
	reqs := []workload.Request{
		{Write: true, Offset: 0, Length: bs},
		{Write: true, Offset: int64(bs), Length: bs},
		{Write: true, Offset: 2 * int64(bs), Length: bs},
	}
	datas := [][]byte{make([]byte, bs)}
	clk, ws := s.Now(), s.ICL.Stats()
	if _, err := s.SubmitBatch(s.Now(), reqs, datas, nil); err == nil {
		t.Fatal("batch with 1 payload for 3 requests succeeded")
	}
	if _, batched := s.BatchStats(); batched != 0 || s.Now() != clk || s.ICL.Stats() != ws {
		t.Fatalf("refused batch left a trace: %d requests counted, clock %d -> %d", batched, clk, s.Now())
	}
	// The same vector at full length goes through.
	datas = append(datas, make([]byte, bs), nil)
	if _, err := s.SubmitBatch(s.Now(), reqs, datas, nil); err != nil {
		t.Fatal(err)
	}
}
