package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// seqFillDurable writes the whole volume sequentially with tracked payload
// bytes, then flushes and drains so every byte is acknowledged durable on
// flash. It returns the generator seed so callers can replay the request
// sequence and reconstruct the exact payload of every line.
func seqFillDurable(t *testing.T, s *core.System) (bs int, n int, seed int) {
	t.Helper()
	bs = s.Split.LineBytes()
	n = int(s.VolumeBytes() / int64(bs))
	seed = 43
	gen, err := workload.NewFIO(workload.SeqWrite, bs, s.VolumeBytes(), uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 16, WithData: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(s.Now()); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	return bs, n, seed
}

// runPayload reconstructs the payload bytes Run's WithData generator
// attached to request i: data[k] = byte(offset + k + i).
func runPayload(req workload.Request, i int) []byte {
	data := make([]byte, req.Length)
	for k := range data {
		data[k] = byte(int(req.Offset) + k + i)
	}
	return data
}

// powerTrajectory drives a TrackData system through a durable sequential
// fill, a GC-heavy overwrite storm cut by a power loss mid-flight, recovery,
// and a post-mount write+read phase, rendering every observable — run rows,
// the power-loss resolution, the mount report, component stats and payload
// fingerprints — into one golden string.
func powerTrajectory(t *testing.T, s *core.System) string {
	t.Helper()
	var out bytes.Buffer
	seqFillDurable(t, s)

	// Phase 1: uncut storm segment — establishes GC churn and a reference
	// duration for placing the cut.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 300, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "pre-cut", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("storm did not trigger GC; the power-loss equivalence must cover recovery under GC")
	}

	// Phase 2: the same storm continues and power is cut a third of the
	// phase-1 span in — deep inside the overwrite churn, with programs (and
	// typically GC plans) in flight.
	cut := s.Now() + sim.Time((res.End-res.Start)/3)
	w2gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(w2gen, core.RunConfig{Requests: 600, IODepth: 16, WithData: true, PowerLossAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerLost {
		t.Fatalf("cut at %v did not fire (run ended %v)", cut, res.End)
	}
	if res.PowerLoss.Flash.InFlight == 0 {
		t.Fatal("cut caught no in-flight programs; move it deeper into the storm")
	}
	renderRow(&out, "cut", res)
	fmt.Fprintf(&out, "powerloss %+v\n", res.PowerLoss)
	fmt.Fprintf(&out, "mount %+v\n", res.Mount)

	// Phase 3: the remounted device keeps serving — writes allocate fresh
	// open blocks, reads hit the recovered mapping.
	w3gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(w3gen, core.RunConfig{Requests: 200, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "post-mount", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestPowerLossRecoveryGoldenEquivalence pins deterministic power-loss
// emulation: a cut dropped into a GC-heavy overwrite storm resolves the
// committed in-flight set torn-or-committed, rebuilds the committed mapping
// at mount, and leaves the device continuing as committed. The cut is one
// event in the engine's (time, sequence) order, so the dispatched prefix is
// a property of the event sequence alone.
func TestPowerLossRecoveryGoldenEquivalence(t *testing.T) {
	checkPin(t, "power-loss", powerTrajectory(t, wideSystem(t)))
}

// TestPowerCutReportsCompletedRequests: a run the cut halts reports the
// requests that completed before it, failed ones included, instead of the
// budget it never got to, so IOPS counts only what the window served.
func TestPowerCutReportsCompletedRequests(t *testing.T) {
	s := smallSystem(t, nil)
	const budget = 400
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: budget, IODepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	cut := s.Now() + sim.Time((res.End-res.Start)/3)
	res, err = s.Run(gen, core.RunConfig{Requests: budget, IODepth: 16, PowerLossAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerLost {
		t.Fatalf("cut at %v did not fire (run ended %v)", cut, res.End)
	}
	if done := res.Latency.Count() + res.FailedReads + res.FailedWrites; res.Requests != done || done >= budget {
		t.Fatalf("cut run reports %d requests, %d completed before the cut of a %d budget", res.Requests, done, budget)
	}
}

// TestPowerLossFlushedRemountExact is the quiescent-cut durability bar: if
// power is lost while no program is in flight (all writes flushed and
// drained), mount-time recovery must rebuild a mapping that serves every
// byte of the volume exactly as written — nothing torn, nothing stale,
// nothing lost.
func TestPowerLossFlushedRemountExact(t *testing.T) {
	s := wideSystem(t)
	bs, n, seed := seqFillDurable(t, s)

	// Cut power during a pure read run: reads hold no volatile payloads the
	// device promised to keep, so recovery must be lossless.
	rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cut := s.Now() + 1
	res, err := s.Run(rgen, core.RunConfig{Requests: 500, IODepth: 16, PowerLossAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerLost {
		t.Fatalf("cut at %v did not fire", cut)
	}
	if fl := res.PowerLoss.Flash; fl.InFlight != 0 || fl.Torn != 0 {
		t.Fatalf("quiescent cut resolved in-flight programs: %+v", fl)
	}
	if res.Mount.TornDiscarded != 0 {
		t.Fatalf("quiescent cut discarded %d pages as torn", res.Mount.TornDiscarded)
	}
	if res.Mount.RecoveredSubs == 0 {
		t.Fatal("mount recovered no mappings")
	}

	// Every line of the sequential fill must read back byte-exact.
	gen, err := workload.NewFIO(workload.SeqWrite, bs, s.VolumeBytes(), uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	for i := 0; i < n; i++ {
		req := gen.Next(i)
		want := runPayload(req, i)
		req.Write = false
		if _, err := s.Submit(s.Now(), req, buf); err != nil {
			t.Fatalf("read %d @%d after remount: %v", i, req.Offset, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read %d @%d after remount: payload diverged from the acknowledged-durable write", i, req.Offset)
		}
	}
}

// powerCutDigest runs one storm-cut-mount-verify cycle: a fresh system gets
// a durable sequential fill, an overwrite storm cut at the given absolute
// time, and a full-volume read-back where every 4 KiB block must hold either
// its durable baseline payload or the payload of some storm write to that
// offset — a torn or lost acknowledged write would surface as an unmapped
// (zero) or mismatched read. It returns a digest of the recovery plus the
// flash resolution counts.
func powerCutDigest(t *testing.T, cut sim.Time, stormReqs int) (string, core.PowerLossReport) {
	t.Helper()
	s := wideSystem(t)
	bs, n, seed := seqFillDurable(t, s)

	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 29)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: stormReqs, IODepth: 16, WithData: true, PowerLossAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerLost {
		t.Fatalf("cut at %v did not fire (storm ended %v)", cut, res.End)
	}

	// Candidate payloads per 4 KiB offset: the baseline fill line slice,
	// plus every storm write to that offset (acknowledged or not — a write
	// in flight at the cut may legitimately have committed).
	baseGen, err := workload.NewFIO(workload.SeqWrite, bs, s.VolumeBytes(), uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[int64][]byte, n*(bs/4096))
	for i := 0; i < n; i++ {
		req := baseGen.Next(i)
		data := runPayload(req, i)
		for off := 0; off < req.Length; off += 4096 {
			base[req.Offset+int64(off)] = data[off : off+4096]
		}
	}
	stormGen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 29)
	if err != nil {
		t.Fatal(err)
	}
	storm := make(map[int64][][]byte)
	for i := 0; i < stormReqs; i++ {
		req := stormGen.Next(i)
		storm[req.Offset] = append(storm[req.Offset], runPayload(req, i))
	}

	buf := make([]byte, 4096)
	var sum uint64
	for off := int64(0); off+4096 <= s.VolumeBytes(); off += 4096 {
		req := workload.Request{Offset: off, Length: 4096}
		if _, err := s.Submit(s.Now(), req, buf); err != nil {
			t.Fatalf("cut %v: read @%d after remount: %v", cut, off, err)
		}
		ok := bytes.Equal(buf, base[off])
		for _, cand := range storm[off] {
			if ok {
				break
			}
			ok = bytes.Equal(buf, cand)
		}
		if !ok {
			t.Fatalf("cut %v: block @%d holds neither its durable baseline nor any storm payload — an acknowledged-durable write was lost", cut, off)
		}
		for j, b := range buf {
			sum += uint64(b) * uint64(j+1)
		}
	}
	if err := flashMatchesFIL(s); err != nil {
		t.Fatalf("cut %v: %v", cut, err)
	}
	digest := fmt.Sprintf("cut %v loss %+v mount %+v readsum %d", cut, res.PowerLoss, res.Mount, sum)
	return digest, res.PowerLoss
}

// TestPowerLossSweepGoldenEquivalence sweeps cuts across a GC-heavy
// overwrite storm and holds every recovery to two bars at once: durability
// (after mount, every 4 KiB block serves its durable baseline or a storm
// payload — never torn data, never a lost acknowledged write) and
// determinism (the recovery digests of all five cuts — resolution counts,
// mount report, volume read-back checksum — hash to the committed pin).
func TestPowerLossSweepGoldenEquivalence(t *testing.T) {
	const stormReqs = 500

	// Probe the storm span uncut to place the sweep.
	probe := wideSystem(t)
	seqFillDurable(t, probe)
	pgen, err := workload.NewFIO(workload.RandWrite, 4096, probe.VolumeBytes(), 29)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := probe.Run(pgen, core.RunConfig{Requests: stormReqs, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	if probe.FTL.Stats().GCRuns == 0 {
		t.Fatal("storm did not trigger GC; the sweep must cover cuts mid-GC")
	}
	span := pres.End - pres.Start
	fracs := []float64{0.1, 0.25, 0.45, 0.65, 0.85}
	cuts := make([]sim.Time, len(fracs))
	for i, f := range fracs {
		cuts[i] = pres.Start + sim.Time(float64(span)*f)
	}

	var digests strings.Builder
	inFlight, torn, undone := 0, 0, 0
	for _, cut := range cuts {
		digest, rep := powerCutDigest(t, cut, stormReqs)
		digests.WriteString(digest + "\n")
		inFlight += rep.Flash.InFlight
		torn += rep.Flash.Torn
		undone += rep.Flash.ErasesUndone
	}
	if inFlight == 0 || torn == 0 {
		t.Fatalf("sweep is vacuous: %d in-flight programs, %d torn across all cuts", inFlight, torn)
	}
	t.Logf("sweep: %d in-flight, %d torn, %d erases undone across %d cuts", inFlight, torn, undone, len(cuts))
	checkPin(t, "power-cut-sweep", digests.String())
}

// TestReadCertPowerLossMountDisarm pins the read-certificate lifecycle
// across a power cycle at the system level: durable reads fast-path while
// the chain is armed, the cut disarms it (reads walk validation), and
// Mount's recovery re-arms against the rebuilt FTL so the fast path
// resumes — with the pre-cut issuer's certificates rejected by identity.
func TestReadCertPowerLossMountDisarm(t *testing.T) {
	s := wideSystem(t)
	seqFillDurable(t, s)

	readRun := func(seed uint64) {
		t.Helper()
		rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), seed)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		for i := 0; i < 50; i++ {
			if _, err := s.Submit(s.Now(), rgen.Next(i), buf); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
	}

	readRun(11)
	armed := s.FIL.Stats()
	if armed.CertifiedReads == 0 {
		t.Fatal("durable reads on an armed chain never took the certified path")
	}

	s.PowerLoss(s.Now() + 1)
	afterCut := s.FIL.Stats()
	if afterCut.CertDisarms <= armed.CertDisarms {
		t.Fatalf("power loss did not disarm the read certificate: %d -> %d",
			armed.CertDisarms, afterCut.CertDisarms)
	}
	if _, err := s.Mount(); err != nil {
		t.Fatal(err)
	}

	readRun(13)
	remounted := s.FIL.Stats()
	if remounted.CertifiedReads <= afterCut.CertifiedReads {
		t.Fatalf("mount recovery did not re-arm the certified read path: %d -> %d",
			afterCut.CertifiedReads, remounted.CertifiedReads)
	}
}

// TestRestoredSystemCutsLikeOriginal: a snapshot taken while claimed erases
// have not yet started carries their undo records, so a power cut after a
// restore puts back the blocks the original's cut would: both systems give
// the same power-loss and mount reports and the same post-cut image. Short
// runs end with GC erases still queued behind the migrations they wait for.
func TestRestoredSystemCutsLikeOriginal(t *testing.T) {
	s := smallSystem(t, nil)
	seqFillDurable(t, s)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if _, err := s.Run(gen, core.RunConfig{Requests: 3, IODepth: 3, WithData: true}); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := smallSystem(t, nil)
	if err := r.Restore(img); err != nil {
		t.Fatal(err)
	}
	var results [2]*core.RunResult
	var images [2][]byte
	for i, x := range []*core.System{s, r} {
		wgen, err := workload.NewFIO(workload.RandWrite, 4096, x.VolumeBytes(), 99)
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.Run(wgen, core.RunConfig{Requests: 200, IODepth: 32, WithData: true, PowerLossAt: x.Now() + sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !res.PowerLost {
			t.Fatal("the cut did not fire")
		}
		results[i] = res
		if images[i], err = x.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	orig, restored := results[0], results[1]
	if orig.PowerLoss.Flash.ErasesUndone == 0 {
		t.Fatal("the cut undid no erase: the snapshot caught none pending")
	}
	if orig.PowerLoss != restored.PowerLoss {
		t.Errorf("power loss: original %+v, restored %+v", orig.PowerLoss, restored.PowerLoss)
	}
	if orig.Mount != restored.Mount {
		t.Errorf("mount: original %+v, restored %+v", orig.Mount, restored.Mount)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Error("the post-cut images differ")
	}
}

// TestPowerCutBeforeClockRefused: the flash prunes its in-flight journals at
// the system clock, so Run refuses a cut before it instead of resolving it
// against records already gone.
func TestPowerCutBeforeClockRefused(t *testing.T) {
	s := smallSystem(t, nil)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 100, IODepth: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 100, IODepth: 16, PowerLossAt: s.Now() - 1}); err == nil || !strings.Contains(err.Error(), "before the system clock") {
		t.Fatalf("a cut before the clock returned %v", err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 100, IODepth: 16, PowerLossAt: s.Now()})
	if err != nil || !res.PowerLost {
		t.Fatalf("a cut at the clock returned %v (fired %v)", err, err == nil && res.PowerLost)
	}
}
