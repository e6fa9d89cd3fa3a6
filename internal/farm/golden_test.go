package farm

import (
	"hash/fnv"
	"strconv"
	"testing"

	"amber/internal/config"
	"amber/internal/sim"
)

// farmWorkers are the device-window worker counts the goldens compare
// against the serial reference.
var farmWorkers = []int{1, 2, 4}

// farmPins holds the FNV-64a of each golden run's serial trajectory followed
// by its Stats.String(). The worker matrix only proves the parallel windows
// agree with the serial run; these notice a change that moves the farm's
// outcome the same way at every worker count. A PR that moves the farm on
// purpose updates its line from the failure message.
var farmPins = map[string]uint64{
	"fault-storm": 0xa52fee01e456b83e,
	"clean":       0x9f31c4a1ce9ce1ab,
}

// checkFarmPin fails unless the serial trajectory and stats hash to the
// digest committed under name.
func checkFarmPin(t *testing.T, name, traj string, s Stats) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(traj))
	h.Write([]byte(s.String()))
	if got, want := h.Sum64(), farmPins[name]; got != want {
		t.Fatalf("%s farm digest %#x, pinned %#x:\n%s%s", name, got, want, traj, s.String())
	}
}

// stormFaults is the golden fault schedule: seed 4 over a 4x2+1 farm
// resolves to one whole-device death (with spare failover and a completed
// rebuild), three read-only latches, and latency storms wide enough that
// hedges fire and win — every host robustness path exercised in one run.
func stormFaults() FaultConfig {
	return FaultConfig{
		Seed:         4,
		DeathProb:    0.15,
		DeathMin:     8 * sim.Millisecond,
		DeathMax:     30 * sim.Millisecond,
		ReadOnlyProb: 0.10,
		ReadOnlyMin:  8 * sim.Millisecond,
		ReadOnlyMax:  30 * sim.Millisecond,
		StormProb:    0.30,
		StormMin:     5 * sim.Millisecond,
		StormMax:     40 * sim.Millisecond,
		StormLen:     20 * sim.Millisecond,
		StormPenalty: 8 * sim.Millisecond,
	}
}

// goldenRun builds a 9-device farm (4 groups x 2 replicas + 1 spare) at
// the given worker count, drives the standard verified mixed workload, and
// returns the full observable trajectory: counters, event timeline,
// per-device terminal state and content digests (including the rebuilt
// spare), latency aggregates, and the rolling winner-payload digest.
func goldenRun(t *testing.T, workers int, faults FaultConfig) (string, Stats) {
	t.Helper()
	f, err := New(Config{
		Device:   config.PCSystem(config.SmallTestDevice()),
		Groups:   4,
		Replicas: 2,
		Spares:   1,
		Workers:  workers,
		Policy:   Policy{HedgeAfter: 2 * sim.Millisecond},
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(RunConfig{
		Tenants: 3, Requests: 120, MixedWrites: 60, Seed: 42,
		WithData: true, DisjointSpans: true, VerifyReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	traj := f.Fingerprint()
	traj += "readDigest=" + strconv.FormatUint(res.ReadDigest, 16) +
		" latSum=" + strconv.FormatUint(uint64(res.LatencySum), 10) +
		" latMax=" + strconv.FormatUint(uint64(res.LatencyMax), 10) +
		" end=" + strconv.FormatUint(uint64(res.Now), 10) + "\n"
	return traj, res.Stats
}

// TestFarmFaultStormGoldenEquivalence is the tentpole determinism proof: a
// fault storm with a device death, read-only latches, latency storms, retry
// and hedge traffic, and one full hot-spare rebuild must produce a
// byte-identical trajectory — retry counts, hedge winners, failover order,
// event timeline, and the rebuilt spare's reconstructed payload digest —
// at every worker count. Under -race it also proves the device-window
// workers share nothing.
func TestFarmFaultStormGoldenEquivalence(t *testing.T) {
	base, s := goldenRun(t, 0, stormFaults())
	// The storm must actually exercise every robustness path.
	if s.DeviceDeaths == 0 || s.ReadOnlyLatches == 0 {
		t.Fatalf("storm fired no device-level faults:\n%s", s.String())
	}
	if s.Hedges == 0 || s.HedgeWins == 0 || s.Retries == 0 || s.Timeouts == 0 {
		t.Fatalf("host robustness paths idle:\n%s", s.String())
	}
	if s.RebuildsStarted == 0 || s.RebuildsCompleted == 0 || s.UnitsCopied == 0 {
		t.Fatalf("no completed rebuild:\n%s", s.String())
	}
	if s.Corruptions != 0 {
		t.Fatalf("payload verification failed:\n%s", s.String())
	}
	checkFarmPin(t, "fault-storm", base, s)
	for _, w := range farmWorkers {
		got, _ := goldenRun(t, w, stormFaults())
		if got != base {
			t.Fatalf("workers=%d trajectory diverged from serial\n--- serial ---\n%s--- workers=%d ---\n%s",
				w, base, w, got)
		}
	}
}

// TestFarmCleanGoldenEquivalence pins the fault-free trajectory across the
// same worker matrix: parallel device windows must be invisible even when
// no robustness machinery fires.
func TestFarmCleanGoldenEquivalence(t *testing.T) {
	base, s := goldenRun(t, 0, FaultConfig{})
	if s.Corruptions != 0 || s.FailedReads != 0 || s.FailedWrites != 0 || len(s.Events) != 0 {
		t.Fatalf("clean run degraded:\n%s", s.String())
	}
	checkFarmPin(t, "clean", base, s)
	for _, w := range farmWorkers {
		got, _ := goldenRun(t, w, FaultConfig{})
		if got != base {
			t.Fatalf("workers=%d trajectory diverged from serial\n--- serial ---\n%s--- workers=%d ---\n%s",
				w, base, w, got)
		}
	}
}
