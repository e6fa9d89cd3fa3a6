package farm

import (
	"fmt"
	"strings"

	"amber/internal/sim"
	"amber/internal/workload"
)

// Event is one entry of the farm's failure timeline: kicks, failovers and
// rebuild lifecycle, in host observation order. The golden fault-storm
// test asserts the whole list byte-identical at any worker count.
type Event struct {
	Kind  string // kick-dead | kick-readonly | rebuild-start | rebuild-done | rebuild-abort
	Dev   int
	Group int
	Spare int // rebuild events: the spare involved (-1 otherwise)
	At    sim.Time
}

func (e Event) String() string {
	return fmt.Sprintf("%s dev=%d group=%d spare=%d at=%d", e.Kind, e.Dev, e.Group, e.Spare, uint64(e.At))
}

// Stats are the farm's observable counters. All of them are updated only
// in the serial host phases, so they are exact and deterministic.
type Stats struct {
	Requests     uint64 // tenant requests completed (including failed)
	FailedReads  uint64 // read sub-chains that exhausted every replica
	FailedWrites uint64 // write sub-chains with zero surviving acks
	ReadsLost    uint64 // reads refused because no fresh replica remained
	SubOps       uint64 // device operations executed (incl. retries, hedges, copies)

	Retries   uint64 // retry legs issued (reads and writes)
	Timeouts  uint64 // operations observed through the request timeout
	Hedges    uint64 // hedged read legs issued
	HedgeWins uint64 // hedges that beat the primary

	DeviceDeaths    uint64 // devices observed dead by the host
	ReadOnlyLatches uint64 // devices kicked for ftl.ErrReadOnly

	RebuildsStarted   uint64
	RebuildsCompleted uint64
	RebuildsAborted   uint64
	UnitsCopied       uint64 // rebuild copies that landed on the spare
	UnitsSkipped      uint64 // units already covered (never written / written after attach)
	UnitsDropped      uint64 // copies superseded mid-flight by a fresher tenant write
	UnitsLost         uint64 // units with no surviving fresh source

	Corruptions uint64 // VerifyReads mismatches (must stay 0)

	Events []Event // kicks + rebuild lifecycle in observation order
}

func (s *Stats) clone() Stats {
	c := *s
	c.Events = append([]Event(nil), s.Events...)
	return c
}

func (s *Stats) event(kind string, dev, group, spare int, at sim.Time) {
	s.Events = append(s.Events, Event{Kind: kind, Dev: dev, Group: group, Spare: spare, At: at})
}

// String renders every counter and the event timeline — the textual
// trajectory golden tests compare across worker counts.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d failedReads=%d failedWrites=%d readsLost=%d subOps=%d\n",
		s.Requests, s.FailedReads, s.FailedWrites, s.ReadsLost, s.SubOps)
	fmt.Fprintf(&b, "retries=%d timeouts=%d hedges=%d hedgeWins=%d\n",
		s.Retries, s.Timeouts, s.Hedges, s.HedgeWins)
	fmt.Fprintf(&b, "deaths=%d roLatches=%d corruptions=%d\n",
		s.DeviceDeaths, s.ReadOnlyLatches, s.Corruptions)
	fmt.Fprintf(&b, "rebuilds started=%d completed=%d aborted=%d copied=%d skipped=%d dropped=%d lost=%d\n",
		s.RebuildsStarted, s.RebuildsCompleted, s.RebuildsAborted,
		s.UnitsCopied, s.UnitsSkipped, s.UnitsDropped, s.UnitsLost)
	for i, e := range s.Events {
		fmt.Fprintf(&b, "event[%d]: %s\n", i, e)
	}
	return b.String()
}

// RunResult is one farm Run's outcome: the counters plus the latency
// aggregates and the rolling digest of every winning read payload (the
// value the golden test pins byte-identical across worker counts).
type RunResult struct {
	Stats      Stats
	Now        sim.Time     // farm clock at the end of the run
	LatencySum sim.Duration // sum of per-request latencies
	LatencyMax sim.Duration
	ReadDigest uint64 // FNV-1a over winner completion times and payload bytes
}

// Fingerprint renders the full observable trajectory: counters, failure
// timeline, per-device terminal state and — when the devices track data —
// a content digest of every surviving device, including the rebuilt
// spare's reconstructed payload.
func (f *Farm) Fingerprint() string {
	var b strings.Builder
	b.WriteString(f.stats.String())
	fmt.Fprintf(&b, "now=%d writeSeq=%d\n", uint64(f.now), f.writeSeq)
	for _, d := range f.devs {
		fmt.Fprintf(&b, "dev%d state=%s group=%d exitSeq=%d", d.id, d.state, d.group, d.exitSeq)
		if d.state == devDead || d.downHit {
			b.WriteString(" digest=down\n")
			continue
		}
		dig, clk := f.deviceDigest(d)
		fmt.Fprintf(&b, " digest=%016x clock=%d\n", dig, uint64(clk))
	}
	return b.String()
}

const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// deviceDigest reads the device's whole volume unit by unit through the
// ordinary submit path and folds payload bytes (when tracked) and
// completion times into one digest. Post-run only: it advances the
// device's private clock.
func (f *Farm) deviceDigest(d *device) (uint64, sim.Time) {
	h := fnvOffset
	var buf []byte
	if f.trackData {
		buf = make([]byte, f.unitBytes)
	}
	var last sim.Time
	for off := int64(0); off+f.unitBytes <= d.sys.VolumeBytes(); off += f.unitBytes {
		done, err := d.sys.Submit(last, workload.Request{Offset: off, Length: int(f.unitBytes)}, buf)
		if err != nil {
			h = fnvBytes(h, []byte(err.Error()))
			continue
		}
		last = done
		h = fnvU64(h, uint64(done))
		if buf != nil {
			h = fnvBytes(h, buf)
		}
	}
	return h, last
}
