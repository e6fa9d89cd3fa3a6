package farm

import (
	"errors"
	"fmt"

	"amber/internal/sim"
)

// errDeviceDown reports a scheduled whole-device failure: the device stopped
// responding entirely (controller crash, power rail, hot unplug). Unlike
// ftl.ErrReadOnly it fails reads and writes alike; the host observes it as
// a request timeout. The device's functional state is preserved — a
// rebuild decides what survives, not the device.
var errDeviceDown = errors.New("farm: device down")

// FaultConfig is the seeded device-level fault schedule. Every draw is a
// pure function of (Seed, device index, fault kind) — no shared RNG state,
// no wall clock — mirroring the nand fault model's contract: the schedule
// is fixed at construction and identical at any worker count, so a fault
// storm replays byte-identically.
type FaultConfig struct {
	Seed uint64

	// DeathProb is the per-device probability of a scheduled whole-device
	// death; the death time is drawn uniformly in [DeathMin, DeathMax).
	DeathProb          float64
	DeathMin, DeathMax sim.Time

	// ReadOnlyProb schedules a device-level read-only latch (the
	// ftl.ErrReadOnly wear-out path, forced at the drawn time).
	ReadOnlyProb             float64
	ReadOnlyMin, ReadOnlyMax sim.Time

	// StormProb schedules one latency-storm window per device: requests
	// issued inside [start, start+StormLen) incur StormPenalty of extra
	// service delay.
	StormProb          float64
	StormMin, StormMax sim.Time
	StormLen           sim.Duration
	StormPenalty       sim.Duration
}

// Enabled reports whether any fault kind can fire.
func (c FaultConfig) Enabled() bool {
	return c.DeathProb > 0 || c.ReadOnlyProb > 0 || c.StormProb > 0
}

func (c FaultConfig) validate() error {
	for _, p := range []float64{c.DeathProb, c.ReadOnlyProb, c.StormProb} {
		if !(p >= 0 && p <= 1) { // also rejects NaN
			return fmt.Errorf("farm: fault probability %v outside [0,1]", p)
		}
	}
	return nil
}

// devFaults is one device's resolved schedule; zero times mean "never".
type devFaults struct {
	deadAt               sim.Time
	roAt                 sim.Time
	stormStart, stormEnd sim.Time
}

// Fault-kind separators keep the per-device draws independent streams of
// one seed (ASCII tags, same idiom as nand/fault.go).
const (
	kindDeath    uint64 = 0x6465765f64656164 // "dev_dead"
	kindReadOnly uint64 = 0x6465765f6c617463 // "dev_latc"
	kindStorm    uint64 = 0x6465765f73746f72 // "dev_stor"
)

// mix64 is the splitmix64 finalizer: a high-quality avalanche over the
// packed (seed, device, kind) key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c FaultConfig) draw(kind uint64, dev int) uint64 {
	return mix64(c.Seed ^ kind ^ (uint64(dev)+1)*0x9e3779b97f4a7c15)
}

func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// timeIn maps a draw into [lo, hi); a degenerate window pins to lo.
func timeIn(r uint64, lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(r%uint64(hi-lo))
}

// schedule resolves device dev's fault draws. A drawn time is clamped to
// at least 1 so zero can keep meaning "never".
func (c FaultConfig) schedule(dev int) devFaults {
	var df devFaults
	if r := c.draw(kindDeath, dev); c.DeathProb > 0 && u01(r) < c.DeathProb {
		df.deadAt = timeIn(mix64(r), c.DeathMin, c.DeathMax) + 1
	}
	if r := c.draw(kindReadOnly, dev); c.ReadOnlyProb > 0 && u01(r) < c.ReadOnlyProb {
		df.roAt = timeIn(mix64(r), c.ReadOnlyMin, c.ReadOnlyMax) + 1
	}
	if r := c.draw(kindStorm, dev); c.StormProb > 0 && u01(r) < c.StormProb {
		df.stormStart = timeIn(mix64(r), c.StormMin, c.StormMax) + 1
		df.stormEnd = df.stormStart + c.StormLen
	}
	return df
}
