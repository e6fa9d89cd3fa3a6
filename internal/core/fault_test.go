package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/workload"
)

// faultSystem builds the wideSystem shape with deterministic fault
// injection armed: wear-independent probabilities (WearEraseLimit 0) so
// faults fire on a fresh device, and a spare reserve large enough that the
// trajectory degrades without latching read-only.
func faultSystem(t *testing.T) *core.System {
	t.Helper()
	d := config.SmallTestDevice()
	d.Geometry = nand.Geometry{
		Channels:           8,
		PackagesPerChannel: 1,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     10,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
	// Generous over-provisioning: each retirement removes one of only ten
	// super-blocks, and GC needs room to keep absorbing the churn.
	d.OPRatio = 0.4
	d.Faults = nand.FaultConfig{
		Seed:            99,
		ProgramFailProb: 0.0015,
		EraseFailProb:   0.01,
		ReadFailProb:    0.05,
		MaxReadRetries:  1,
	}
	d.SpareBlocks = 4
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderFaults writes every fault-injection observable into the golden
// buffer: aggregate fault counters, the ordered fault-site log, the
// retirement order, the remaining spare headroom and the read-only latch.
func renderFaults(out *bytes.Buffer, s *core.System) {
	fmt.Fprintf(out, "faults %+v\n", s.Flash.FaultStats())
	for i, site := range s.Flash.FaultSites() {
		fmt.Fprintf(out, "  site %d %v %+v ec %d\n", i, site.Op, site.Addr, site.EraseCount)
	}
	fmt.Fprintf(out, "retired %v headroom %d readonly %v\n",
		s.FTL.RetiredSuperBlocks(), s.FTL.SpareHeadroom(), s.FTL.ReadOnly())
}

// renderFaultRow extends the experiment-table row with the degradation
// counters a faulty run surfaces.
func renderFaultRow(out *bytes.Buffer, name string, res *core.RunResult) {
	renderRow(out, name, res)
	fmt.Fprintf(out, "  failed wr %d rd %d readonly %v\n",
		res.FailedWrites, res.FailedReads, res.ReadOnly)
}

// renderFaultData fingerprints a deterministic payload sample like
// renderData, but folds read errors into the golden string instead of
// failing: on a faulty device an uncorrectable read is a legitimate,
// deterministic outcome the equivalence must cover.
func renderFaultData(out *bytes.Buffer, s *core.System) {
	bs := 4096
	for i := 0; i < 16; i++ {
		off := (int64(i) * 977 * int64(bs)) % (s.VolumeBytes() - int64(bs))
		off -= off % int64(bs)
		buf := make([]byte, bs)
		if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: bs}, buf); err != nil {
			fmt.Fprintf(out, "data@%d err %v\n", off, err)
			continue
		}
		sum := uint64(0)
		for j, b := range buf {
			sum += uint64(b) * uint64(j+1)
		}
		fmt.Fprintf(out, "data@%d sum %d\n", off, sum)
	}
}

// faultTrajectory drives one fault-armed system through a GC-heavy
// overwrite storm plus a read phase and renders every observable — run
// rows with failure counters, fault sites, retirement order, component
// stats, payload fingerprints — into one golden string.
func faultTrajectory(t *testing.T, s *core.System) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	// Phase 1: 4K random overwrites on the fully mapped volume — GC churn
	// draws program and erase faults, retires blocks, replans.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 600, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderFaultRow(&out, "fault-rand-write", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC; the fault equivalence must cover recovery under GC")
	}

	// Phase 2: random reads against the degraded volume — the retry
	// ladder draws, some reads are lost as uncorrectable.
	rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rgen, core.RunConfig{Requests: 300, IODepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	renderFaultRow(&out, "fault-rand-read", res)

	renderFaults(&out, s)
	renderState(&out, s)
	renderFaultData(&out, s)
	return out.String()
}

// TestFaultScheduleGoldenEquivalence pins deterministic fault injection:
// with a fixed seed, a GC-heavy trajectory draws the committed fault
// schedule — same fault sites in the same order, same retirements, same
// replans, same lost pages, same payload bytes. Faults, like claims, are
// drawn at issue, so the schedule is a property of the op sequence alone.
func TestFaultScheduleGoldenEquivalence(t *testing.T) {
	got := faultTrajectory(t, faultSystem(t))

	// The pin is vacuous unless faults actually fired and retired blocks on
	// this trajectory.
	if !strings.Contains(got, "site 0") {
		t.Fatalf("trajectory drew no faults; raise the probabilities:\n%s", got)
	}
	if strings.Contains(got, "retired []") {
		t.Fatalf("trajectory retired no blocks; the pin must cover retirement order:\n%s", got)
	}
	checkPin(t, "fault", got)
}

// coldLineBehindDirtyCache returns a small system whose every cache frame
// holds a dirty line while line 12 sits on flash only: the next fill of
// line 12 evicts a line that needs a write-back.
func coldLineBehindDirtyCache(t *testing.T) (s *core.System, line12 int64) {
	t.Helper()
	s = smallSystem(t, nil)
	lineBytes := int64(s.Split.LineBytes())
	write := func(line int64) {
		t.Helper()
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: line * lineBytes, Length: 4096}, nil); err != nil {
			t.Fatal(err)
		}
	}
	write(12)
	for line := int64(0); line < int64(s.ICL.Config().Lines); line++ {
		write(line)
	}
	if s.ICL.Contains(12, 0) || s.ICL.DirtyLines() != s.ICL.Config().Lines {
		t.Fatalf("set-up: line 12 cached %v, %d dirty lines", s.ICL.Contains(12, 0), s.ICL.DirtyLines())
	}
	return s, 12 * lineBytes
}

// TestFailedFillWakesCoalescedReaders: a read that coalesced onto another
// read's fill must complete even when that fill's install fails. The device
// latches read-only after both reads were admitted (an earlier latch would
// have pinned the dirty frames), so the fill evicts a dirty line whose
// write-back is refused; the fill's owner reports that, and the waiter —
// which used to stay parked for ever — retries and reports its own outcome.
func TestFailedFillWakesCoalescedReaders(t *testing.T) {
	s, off := coldLineBehindDirtyCache(t)
	e := sim.NewEngine()
	flashReads := s.Flash.Stats().Reads
	var fired [2]int
	var errs [2]error
	for k := range fired {
		e.AtIn(sim.DefaultDomain, s.Now(), func() {
			s.SubmitAsync(e, workload.Request{Offset: off, Length: 4096}, nil, func(_ sim.Time, err error) {
				fired[k]++
				errs[k] = err
			})
		})
	}
	e.AtIn(sim.DefaultDomain, s.Now(), s.FTL.ForceReadOnly)
	e.Run()
	if got := s.Flash.Stats().Reads - flashReads; got != 1 {
		t.Fatalf("%d flash reads for two reads of one sub-page: the second did not coalesce", got)
	}
	if !errors.Is(errs[0], ftl.ErrReadOnly) {
		t.Fatalf("the fill's owner reported %v, want the refused write-back", errs[0])
	}
	if fired != [2]int{1, 1} {
		t.Fatalf("callbacks fired %v times, want once each (waiter's outcome: %v)", fired, errs[1])
	}
}

// latchingGen is the same scenario as a Run stream: two reads of the cold
// line, then a write whose generation latches the device read-only — after
// the reads were admitted, before their fill lands.
type latchingGen struct {
	s    *core.System
	cold int64
}

func (g *latchingGen) Name() string { return "latching" }

func (g *latchingGen) Next(i int) workload.Request {
	if i < 2 {
		return workload.Request{Offset: g.cold, Length: 4096}
	}
	g.s.FTL.ForceReadOnly()
	return workload.Request{Write: true, Length: 4096}
}

// TestRunAccountsForEveryRequest: every request Run issues ends as a latency
// sample or a counted failure. With the coalesced reader left parked, Run
// used to return two outcomes for three requests and no error; it now
// refuses to report a run whose completions do not add up.
func TestRunAccountsForEveryRequest(t *testing.T) {
	s, off := coldLineBehindDirtyCache(t)
	res, err := s.Run(&latchingGen{s: s, cold: off}, core.RunConfig{Requests: 3, IODepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != 1 || res.FailedReads != 1 || res.FailedWrites != 1 {
		t.Fatalf("%d latency samples, %d failed reads, %d failed writes for 3 requests; want one of each",
			res.Latency.Count(), res.FailedReads, res.FailedWrites)
	}
}

// TestReadFaultOracle holds every read under read faults to what the host
// acknowledged. On the RAIN tests' geometry with RAIN off, each run fills
// the volume, overwrites four times its size at random 4 KiB offsets with
// payloads no other write carries, flushes, and reads every offset back. A
// read must return the offset's last acknowledged payload — or, after
// writes that failed, that payload or one of theirs — or fail with
// nand.ErrUncorrectable. Zeroes or an older version are wrong reads: the
// loss of a sub-page a migration could not read must surface as an error.
func TestReadFaultOracle(t *testing.T) {
	const bs = 4096
	var runs, wrong, honest int
	for seed := uint64(1); seed <= 4; seed++ {
		for _, p := range []float64{0.05, 0.1} {
			d := config.SmallTestDevice()
			d.Geometry = nand.Geometry{
				Channels:           8,
				PackagesPerChannel: 1,
				DiesPerPackage:     1,
				PlanesPerDie:       2,
				BlocksPerPlane:     10,
				PagesPerBlock:      16,
				PageSize:           4096,
			}
			d.OPRatio = 0.4
			d.Faults = nand.FaultConfig{Seed: seed, ReadFailProb: p, MaxReadRetries: 1}
			d.SpareBlocks = 6
			s, err := core.NewSystem(config.PCSystem(d))
			if err != nil {
				t.Fatal(err)
			}
			n := int(s.VolumeBytes() / bs)
			// ok[i] lists the payloads a read of offset i may return: the
			// last acknowledged one first, then those of writes that failed
			// after it.
			ok := make([][][]byte, n)
			rng := sim.NewRNG(seed)
			for w := 0; w < 5*n; w++ {
				i := w
				if w >= n {
					i = rng.Intn(n)
				}
				buf := make([]byte, bs)
				for k := 0; k < bs; k += 8 {
					binary.LittleEndian.PutUint64(buf[k:], uint64(w)<<32|uint64(k))
				}
				if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: int64(i) * bs, Length: bs}, buf); err != nil {
					ok[i] = append(ok[i], buf)
					continue
				}
				ok[i] = [][]byte{buf}
			}
			if _, err := s.Flush(s.Now()); err != nil {
				t.Fatalf("seed %d p %v: flush: %v", seed, p, err)
			}
			s.Drain()
			for i := 0; i < n; i++ {
				buf := make([]byte, bs)
				if _, err := s.Submit(s.Now(), workload.Request{Offset: int64(i) * bs, Length: bs}, buf); err != nil {
					if !errors.Is(err, nand.ErrUncorrectable) {
						t.Fatalf("seed %d p %v: read of offset %d: %v", seed, p, i*bs, err)
					}
					honest++
					continue
				}
				if !slices.ContainsFunc(ok[i], func(v []byte) bool { return bytes.Equal(v, buf) }) {
					if wrong < 5 {
						t.Errorf("seed %d p %v: read of offset %d returned bytes no acknowledged write left there", seed, p, i*bs)
					}
					wrong++
				}
			}
			if s.FTL.ReadOnly() {
				t.Errorf("seed %d p %v: the device went read-only", seed, p)
			}
			runs++
		}
	}
	t.Logf("read-fault oracle: %d runs, %d wrong reads, %d honest failures", runs, wrong, honest)
	if wrong > 0 {
		t.Fatalf("%d wrong reads", wrong)
	}
}
