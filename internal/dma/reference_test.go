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
		for j < entries && pl.contiguousWith(j-1) && (e.maxBatch == 0 || j-i < e.maxBatch) {
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
// layout, contiguous and framed (with gaps), whole pages and short tails, one
// entry to a cache line's 240 — through Transfer and the per-descriptor
// reference on twin engines, for both modes, the h-type copy on and off and
// burst limits 0, 1 and 7, a link slower and faster than host memory, against
// resources that are sometimes idle, sometimes backlogged (and the two not
// equally). Returned time, both resources' timelines and Stats must agree
// after every transfer.
func TestTransferMatchesPerEntryReference(t *testing.T) {
	build := func(mode Mode, hostCopy bool, maxBatch int, linkBW, memBW float64) *Engine {
		e, err := New(Config{
			Link:               sim.NewResource("link"),
			LinkBytesPerSec:    linkBW,
			HostMem:            sim.NewResource("hostmem"),
			HostMemBytesPerSec: memBW,
			Mode:               mode,
			HostControllerCopy: hostCopy,
			MaxBatchEntries:    maxBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, mode := range []Mode{Timing, Functional} {
		for _, hostCopy := range []bool{false, true} {
			for _, maxBatch := range []int{0, 1, 7} {
				t.Run(fmt.Sprintf("%v/copy=%v/burst=%d", mode, hostCopy, maxBatch), func(t *testing.T) {
					// A link slower than host memory, as on every preset, for
					// burst limits 0 and 1; the reverse for 7, so that entries
					// reach the link spaced further apart than it serves them.
					linkBW, memBW := 3.2e9, 12.8e9
					if maxBatch == 7 {
						linkBW, memBW = memBW, linkBW
					}
					got, ref := build(mode, hostCopy, maxBatch, linkBW, memBW), build(mode, hostCopy, maxBatch, linkBW, memBW)
					rng := sim.NewRNG(uint64(11 + 7*maxBatch))
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
						switch rng.Intn(4) {
						case 0:
							pl.Contig = true
						case 1:
							frames := make([]int64, pl.Entries())
							next := int64(rng.Intn(1000))
							for i := range frames {
								if rng.Intn(3) == 0 {
									next += int64(1 + rng.Intn(5)) // a gap: the run breaks here
								}
								frames[i] = next
								next++
							}
							pl.Frames = frames
						}
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
				})
			}
		}
	}
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
