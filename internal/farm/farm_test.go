package farm

import (
	"errors"
	"math"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/icl"
	"amber/internal/sim"
	"amber/internal/workload"
)

// testFarm builds a small farm over the standard test device. Faults are
// injected per test, either through the seeded FaultConfig or by pinning a
// device's resolved schedule directly (white-box, deterministic).
func testFarm(t *testing.T, groups, replicas, spares, workers int, faults FaultConfig) *Farm {
	t.Helper()
	f, err := New(Config{
		Device:   config.PCSystem(config.SmallTestDevice()),
		Groups:   groups,
		Replicas: replicas,
		Spares:   spares,
		Workers:  workers,
		Faults:   faults,
		Policy: Policy{
			HedgeAfter: 2 * sim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mixedRun is the standard traffic shape: each tenant writes its span,
// then reads it back with payload verification.
func mixedRun(requests int) RunConfig {
	return RunConfig{
		Tenants:       3,
		Requests:      requests,
		MixedWrites:   requests / 2,
		Seed:          42,
		WithData:      true,
		DisjointSpans: true,
		VerifyReads:   true,
	}
}

func TestFarmCleanRun(t *testing.T) {
	f := testFarm(t, 2, 2, 1, 0, FaultConfig{})
	res, err := f.Run(mixedRun(60))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Requests != 3*60 {
		t.Fatalf("requests = %d, want %d", s.Requests, 3*60)
	}
	if s.Corruptions != 0 || s.FailedReads != 0 || s.FailedWrites != 0 {
		t.Fatalf("clean run degraded:\n%s", s.String())
	}
	// Every write fans out to both replicas; every read takes one leg,
	// plus any hedge legs fired by ordinary queueing delay (device clocks
	// run ahead of tenant clocks, so tail reads can exceed HedgeAfter
	// without any fault).
	wantOps := uint64(3*(30*2+30)) + s.Hedges
	if s.SubOps != wantOps {
		t.Fatalf("subOps = %d, want %d (hedges=%d)", s.SubOps, wantOps, s.Hedges)
	}
	if s.Retries != 0 || s.Timeouts != 0 {
		t.Fatalf("clean run retried or timed out:\n%s", s.String())
	}
	if len(s.Events) != 0 {
		t.Fatalf("clean run produced failure events: %v", s.Events)
	}
}

// TestFarmDeviceDeathFailoverRebuild kills one replica mid-run and checks
// the full recovery arc: the write path survives on the mirror, a spare is
// attached and rebuilt from the survivor, and — because the read phase
// keeps verifying payloads long after the rebuild completes — the
// reconstructed contents on the spare are proven byte-correct.
func TestFarmDeviceDeathFailoverRebuild(t *testing.T) {
	f := testFarm(t, 2, 2, 1, 0, FaultConfig{})
	f.devs[1].faults.deadAt = 10 * sim.Millisecond
	res, err := f.Run(mixedRun(120))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Corruptions != 0 {
		t.Fatalf("corrupted reads after rebuild:\n%s", s.String())
	}
	if s.DeviceDeaths != 1 || s.RebuildsStarted != 1 || s.RebuildsCompleted != 1 {
		t.Fatalf("recovery arc incomplete:\n%s", s.String())
	}
	if s.FailedWrites != 0 || s.FailedReads != 0 {
		t.Fatalf("mirror should have absorbed the death:\n%s", s.String())
	}
	if s.Timeouts == 0 {
		t.Fatalf("a dead device must be observed through timeouts:\n%s", s.String())
	}
	if f.devs[1].state != devDead {
		t.Fatalf("dev1 state = %v, want dead", f.devs[1].state)
	}
	if f.devs[4].state != devLive || f.devs[4].group != 0 {
		t.Fatalf("spare not promoted: state=%v group=%d", f.devs[4].state, f.devs[4].group)
	}
	g := f.grps[0]
	if len(g.members) != 2 || g.members[0] != 0 || g.members[1] != 4 {
		t.Fatalf("group 0 members = %v, want [0 4]", g.members)
	}
	if s.UnitsCopied == 0 {
		t.Fatalf("rebuild copied nothing:\n%s", s.String())
	}
}

// TestFarmReadOnlyLatchFailover latches one replica read-only mid-run:
// writes fail over to the mirror and a spare, reads may still be served
// from the latched device only while provably fresh — payload verification
// would catch any stale serve.
func TestFarmReadOnlyLatchFailover(t *testing.T) {
	f := testFarm(t, 2, 2, 1, 0, FaultConfig{})
	f.devs[0].faults.roAt = 8 * sim.Millisecond
	res, err := f.Run(mixedRun(120))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Corruptions != 0 {
		t.Fatalf("stale or corrupt reads:\n%s", s.String())
	}
	if s.ReadOnlyLatches != 1 {
		t.Fatalf("roLatches = %d, want 1:\n%s", s.ReadOnlyLatches, s.String())
	}
	if s.FailedWrites != 0 {
		t.Fatalf("writes must survive a single latch:\n%s", s.String())
	}
	if s.RebuildsStarted != 1 || s.RebuildsCompleted != 1 {
		t.Fatalf("latched member should be rebuilt onto the spare:\n%s", s.String())
	}
	if f.devs[0].state != devReadOnly {
		t.Fatalf("dev0 state = %v, want readonly", f.devs[0].state)
	}
}

// TestFarmLatencyStormHedging puts one replica in a latency storm: reads
// whose primary lands in the storm hedge to the mirror, and the hedge wins
// whenever the penalty exceeds the hedge threshold.
func TestFarmLatencyStormHedging(t *testing.T) {
	f := testFarm(t, 2, 2, 0, 0, FaultConfig{StormPenalty: 8 * sim.Millisecond})
	f.devs[1].faults.stormStart = 30 * sim.Millisecond
	f.devs[1].faults.stormEnd = 80 * sim.Millisecond
	res, err := f.Run(mixedRun(120))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Corruptions != 0 || s.FailedReads != 0 {
		t.Fatalf("storm must only slow, not fail:\n%s", s.String())
	}
	if s.Hedges == 0 {
		t.Fatalf("no hedges fired during the storm:\n%s", s.String())
	}
	if s.HedgeWins == 0 {
		t.Fatalf("an 8ms-delayed primary must lose to a healthy mirror:\n%s", s.String())
	}
	if s.DeviceDeaths != 0 || s.ReadOnlyLatches != 0 {
		t.Fatalf("storm misclassified as failure:\n%s", s.String())
	}
}

// TestFarmAllReplicasDead: requests that run into a fully dead
// group fail cleanly and are counted — nothing panics, nothing stalls.
func TestFarmAllReplicasDead(t *testing.T) {
	f := testFarm(t, 1, 2, 0, 0, FaultConfig{})
	f.devs[0].faults.deadAt = 10 * sim.Millisecond
	f.devs[1].faults.deadAt = 12 * sim.Millisecond
	res, err := f.Run(RunConfig{
		Tenants:     2,
		Requests:    120,
		MixedWrites: 60,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.DeviceDeaths != 2 {
		t.Fatalf("deaths = %d, want 2:\n%s", s.DeviceDeaths, s.String())
	}
	if s.FailedWrites == 0 || s.FailedReads == 0 {
		t.Fatalf("requests against a dead group must fail:\n%s", s.String())
	}
	if s.Requests != 2*120 {
		t.Fatalf("every request must still complete (failed or not): %d", s.Requests)
	}
}

// TestFarmSnapshotClonesIdentical: before any traffic, every cloned device
// serves byte-identical contents with byte-identical timing.
func TestFarmSnapshotClonesIdentical(t *testing.T) {
	f, err := New(Config{
		Device:       config.PCSystem(config.SmallTestDevice()),
		Groups:       2,
		Replicas:     2,
		Spares:       1,
		Precondition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := f.deviceDigest(f.devs[0])
	for _, d := range f.devs[1:] {
		dig, _ := f.deviceDigest(d)
		if dig != base {
			t.Fatalf("device %d clone digest %016x != device 0 %016x", d.id, dig, base)
		}
	}
}

// memberState is what a member's System shows of the requests it served:
// its clock, its cache counters and the events its submit engine fired.
type memberState struct {
	now        sim.Time
	cache      icl.Stats
	dispatched uint64
}

func probeMember(sys *core.System) memberState {
	m := memberState{now: sys.Now(), cache: sys.ICL.Stats()}
	for _, d := range sys.SubmitEngineDomainStats() {
		m.dispatched += d.Dispatched
	}
	return m
}

// TestFarmFaultBoundary drives one member's ops through execOp next to a
// fault-free twin. A member is never called once dead: from the op that
// observes the death on, its state stays what it was at the death. A
// storm shifts an idle member's completion by exactly StormPenalty, and
// ops outside the window complete as on the twin.
func TestFarmFaultBoundary(t *testing.T) {
	const penalty = 8 * sim.Millisecond
	ms := func(x float64) sim.Time { return sim.Time(x * float64(sim.Millisecond)) }
	cases := []struct {
		name   string
		faults devFaults
		issues []sim.Time
		// deadFrom is the first op answered errDeviceDown (-1: none);
		// served reports whether the device ran that op before dying.
		deadFrom int
		served   bool
		shift    []sim.Duration // per op before deadFrom: done - twin's done
	}{
		{name: "death at issue", faults: devFaults{deadAt: ms(5)},
			issues: []sim.Time{ms(1), ms(2), ms(6), ms(7)}, deadFrom: 2, shift: []sim.Duration{0, 0}},
		{name: "death while serving", faults: devFaults{deadAt: ms(1) + 1},
			issues: []sim.Time{ms(1), ms(2), ms(3)}, deadFrom: 0, served: true},
		{name: "storm", faults: devFaults{stormStart: ms(1), stormEnd: ms(2)},
			issues: []sim.Time{ms(1.5), ms(50)}, deadFrom: -1, shift: []sim.Duration{penalty, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testFarm(t, 1, 1, 0, 0, FaultConfig{StormPenalty: penalty})
			twin := testFarm(t, 1, 1, 0, 0, FaultConfig{StormPenalty: penalty})
			d, tw := f.devs[0], twin.devs[0]
			d.faults = tc.faults
			var atDeath memberState
			for i, at := range tc.issues {
				req := workload.Request{Write: i%2 == 0, Length: 4096}
				o, ot := op{req: req, issue: at}, op{req: req, issue: at}
				if i == tc.deadFrom && !tc.served {
					atDeath = probeMember(d.sys)
				}
				f.execOp(d, &o)
				twin.execOp(tw, &ot)
				if ot.err != nil {
					t.Fatalf("op %d: twin failed: %v", i, ot.err)
				}
				if tc.deadFrom < 0 || i < tc.deadFrom {
					if o.err != nil {
						t.Fatalf("op %d: %v", i, o.err)
					}
					if got := o.done - ot.done; got != tc.shift[i] {
						t.Fatalf("op %d at %d: done %d, twin %d: shift %d, want %d",
							i, at, o.done, ot.done, got, tc.shift[i])
					}
					continue
				}
				if !errors.Is(o.err, errDeviceDown) || !d.downHit {
					t.Fatalf("op %d at %d: err %v downHit %v, want the death", i, at, o.err, d.downHit)
				}
				if i == tc.deadFrom && tc.served {
					atDeath = probeMember(d.sys)
				}
				if got := probeMember(d.sys); got != atDeath {
					t.Fatalf("op %d reached a dead member: %+v, at death %+v", i, got, atDeath)
				}
			}
		})
	}
}

// TestFaultConfigRejectsNonProbabilities: every probability outside [0,1],
// NaN and the infinities included, fails New instead of never firing.
func TestFaultConfigRejectsNonProbabilities(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		for _, fc := range []FaultConfig{{DeathProb: p}, {ReadOnlyProb: p}, {StormProb: p}} {
			if err := fc.validate(); err == nil {
				t.Fatalf("%+v accepted", fc)
			}
		}
	}
	for _, p := range []float64{0, 0.5, 1} {
		if err := (FaultConfig{DeathProb: p, ReadOnlyProb: p, StormProb: p}).validate(); err != nil {
			t.Fatalf("probability %v rejected: %v", p, err)
		}
	}
}
