package dma

import (
	"fmt"
	"testing"

	"amber/internal/sim"
)

// refTransfer is the per-descriptor loop Transfer is held equal to: every
// descriptor batch claims host memory (twice for the h-type copy) and then the
// link, one Claim at a time. It is the loop Transfer still runs for every list
// shape but the one it turns into two ClaimRuns, and exists only here.
func refTransfer(e *Engine, now sim.Time, pl PointerList) sim.Time {
	if pl.Length <= 0 {
		return now
	}
	move := func(n, entries int) sim.Time {
		mem := sim.TransferTime(int64(n), e.hostMemBW)
		_, memDone := e.hostMem.Claim(now, mem)
		if e.hostCopy {
			_, memDone = e.hostMem.Claim(memDone, mem)
		}
		_, linkDone := e.link.Claim(memDone, sim.TransferTime(int64(n), e.linkBW))
		e.stats.Descriptors++
		e.stats.Entries += uint64(entries)
		e.stats.BytesMoved += uint64(n)
		return linkDone
	}
	entries := pl.Entries()
	if e.mode == Functional {
		return move(pl.Length, entries)
	}
	done := now
	for i := 0; i < entries; {
		j := i + 1
		for j < entries && pl.Contig {
			j++
		}
		n := j * pl.PageSize
		if n > pl.Length {
			n = pl.Length
		}
		n -= i * pl.PageSize
		if t := move(n, j-i); t > done {
			done = t
		}
		i = j
	}
	return done
}

// TestTransferMatchesPerEntryReference drives random pointer lists — unknown
// layout and contiguous, whole pages and short tails, one
// entry to a cache line's 240 — through Transfer and the per-descriptor
// reference on twin engines, for both modes, the h-type copy on and off, and
// a link slower and faster than host memory, against
// resources that are sometimes idle, sometimes backlogged (and the two not
// equally). Returned time, both resources' timelines and Stats must agree
// after every transfer.
func TestTransferMatchesPerEntryReference(t *testing.T) {
	build := func(mode Mode, hostCopy bool, linkBW, memBW float64) *Engine {
		e, err := New(Config{
			Link:               sim.NewResource("link"),
			LinkBytesPerSec:    linkBW,
			HostMem:            sim.NewResource("hostmem"),
			HostMemBytesPerSec: memBW,
			Mode:               mode,
			HostControllerCopy: hostCopy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, mode := range []Mode{Timing, Functional} {
		for _, hostCopy := range []bool{false, true} {
			// burst=0: a contiguous list is one descriptor batch, however long.
			t.Run(fmt.Sprintf("%v/copy=%v/burst=0", mode, hostCopy), func(t *testing.T) {
				// A link slower than host memory, as on every preset, then the
				// reverse, so that entries reach the link spaced further apart
				// than it serves them.
				for leg, bw := range [][2]float64{{3.2e9, 12.8e9}, {12.8e9, 3.2e9}} {
					got, ref := build(mode, hostCopy, bw[0], bw[1]), build(mode, hostCopy, bw[0], bw[1])
					rng := sim.NewRNG(uint64(11 + 49*leg))
					now := sim.Time(0)
					for step := 0; step < 600; step++ {
						pageSize := []int{4096, 512, 4000}[rng.Intn(3)]
						entries := 1 + rng.Intn(8)
						if rng.Intn(4) == 0 {
							entries = 1 + rng.Intn(240)
						}
						length := entries * pageSize
						if rng.Intn(2) == 0 {
							length -= rng.Intn(pageSize) // short tail (or none, at 0)
						}
						pl, err := Build(PRP, length, pageSize, nil)
						if err != nil {
							t.Fatal(err)
						}
						pl.Contig = rng.Intn(4) == 0
						// Mostly pile onto busy resources; sometimes let them
						// drain, and sometimes back one up alone.
						switch rng.Intn(5) {
						case 0:
							now += sim.Time(rng.Intn(5_000_000))
						case 1:
							now = sim.MaxOf(got.link.FreeAt(), got.hostMem.FreeAt()) + sim.Time(rng.Intn(1000))
						case 2:
							d := sim.Duration(rng.Intn(3_000_000))
							got.link.Claim(now, d)
							ref.link.Claim(now, d)
						case 3:
							d := sim.Duration(rng.Intn(3_000_000))
							got.hostMem.Claim(now, d)
							ref.hostMem.Claim(now, d)
						}
						toDevice := rng.Intn(2) == 0
						g, w := got.Transfer(now, pl, toDevice), refTransfer(ref, now, pl)
						if g != w {
							t.Fatalf("step %d: Transfer(%d, %+v) = %d, reference %d", step, now, pl, g, w)
						}
						if got.Stats() != ref.Stats() {
							t.Fatalf("step %d: stats %+v, reference %+v", step, got.Stats(), ref.Stats())
						}
						if got.link.State() != ref.link.State() {
							t.Fatalf("step %d: link %+v, reference %+v", step, got.link.State(), ref.link.State())
						}
						if got.hostMem.State() != ref.hostMem.State() {
							t.Fatalf("step %d: host memory %+v, reference %+v", step, got.hostMem.State(), ref.hostMem.State())
						}
					}
				}
			})
		}
	}
}

// FuzzTransferMatchesPerEntry is TestTransferMatchesPerEntryReference's
// proof run open-ended, in the way FuzzResourceClaimRun holds ClaimRun to a
// loop of Claim: for an arbitrary list (length, page size, contiguity),
// either mode, the h-type copy on or off, link and host-memory bandwidths
// and backlogs, Transfer and the per-descriptor loop on twin engines return
// the same completion and leave the same Stats and the same timelines on
// both resources, for two transfers in a row.
func FuzzTransferMatchesPerEntry(f *testing.F) {
	f.Add(uint8(0), uint32(512<<10), uint16(4096), uint32(0), uint32(0), uint32(0), uint8(0))    // s-type line
	f.Add(uint8(2), uint32(512<<10), uint16(4096), uint32(0), uint32(0), uint32(0), uint8(1))    // h-type line
	f.Add(uint8(2), uint32(9000), uint16(4000), uint32(77), uint32(5000), uint32(900), uint8(4)) // short tail, backlogs
	f.Add(uint8(7), uint32(1), uint16(512), uint32(3), uint32(0), uint32(1<<20), uint8(3))       // one byte, contiguous
	f.Fuzz(func(t *testing.T, flags uint8, length uint32, pageSize uint16, now, linkBusy, memBusy uint32, bw uint8) {
		mode := Timing
		if flags&1 != 0 {
			mode = Functional
		}
		hostCopy, contig := flags&2 != 0, flags&4 != 0
		rates := []float64{3.2e9, 12.8e9, 0.6e9, 1e9}
		linkBW, memBW := rates[bw%4], rates[(bw>>2)%4]
		ps := max(int(pageSize), 1)
		n := int(length % (4 << 20))
		if n == 0 {
			n = ps
		}
		build := func() *Engine {
			e, err := New(Config{
				Link: sim.NewResource("link"), LinkBytesPerSec: linkBW,
				HostMem: sim.NewResource("hostmem"), HostMemBytesPerSec: memBW,
				Mode: mode, HostControllerCopy: hostCopy,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.link.Claim(0, sim.Duration(linkBusy)*sim.Nanosecond)
			e.hostMem.Claim(0, sim.Duration(memBusy)*sim.Nanosecond)
			return e
		}
		got, ref := build(), build()
		pl, err := Build(PRP, n, ps, nil)
		if err != nil {
			t.Skip()
		}
		pl.Contig = contig
		at := sim.Time(now) * sim.Nanosecond
		for step := 0; step < 2; step++ {
			g, w := got.Transfer(at, pl, step == 0), refTransfer(ref, at, pl)
			if g != w || got.Stats() != ref.Stats() || got.link.State() != ref.link.State() || got.hostMem.State() != ref.hostMem.State() {
				t.Fatalf("step %d, %v copy=%v, %+v at %v: Transfer %v (stats %+v, link %+v, host memory %+v), reference %v (%+v, %+v, %+v)",
					step, mode, hostCopy, pl, at, g, got.Stats(), got.link.State(), got.hostMem.State(),
					w, ref.Stats(), ref.link.State(), ref.hostMem.State())
			}
		}
	})
}

// BenchmarkTransferLine moves one 960 KiB cache line, 240 host pages of
// unknown layout, as preconditioning does per eviction.
func BenchmarkTransferLine(b *testing.B) {
	e := newEngine(b, Timing, false)
	pl, err := Build(PRP, 120*8192, 4096, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = e.Transfer(now, pl, true)
	}
}
