package dma

import (
	"testing"

	"amber/internal/sim"
)

func newEngine(t testing.TB, mode Mode, hostCopy bool) *Engine {
	t.Helper()
	e, err := New(Config{
		Link:               sim.NewResource("link"),
		LinkBytesPerSec:    3.2e9,
		HostMem:            sim.NewResource("hostmem"),
		HostMemBytesPerSec: 12.8e9,
		Mode:               mode,
		HostControllerCopy: hostCopy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(PRP, 0, 4096, nil); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := Build(PRP, 4096, 0, nil); err == nil {
		t.Fatal("zero page size accepted")
	}
	if _, err := Build(PRP, 4096, 4096, make([]byte, 100)); err == nil {
		t.Fatal("short data accepted")
	}
	pl, err := Build(PRP, 4096, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Entries() != 1 {
		t.Fatalf("Entries = %d", pl.Entries())
	}
}

func TestEntriesAndSlices(t *testing.T) {
	data := make([]byte, 10000)
	pl, err := Build(PRP, 10000, 4096, data)
	if err != nil {
		t.Fatal(err)
	}
	// Two whole pages and a short tail; the list carries the payload as given.
	if pl.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", pl.Entries())
	}
	if len(pl.Data) != len(data) || &pl.Data[0] != &data[0] {
		t.Fatal("Build did not keep the caller's payload")
	}
}

func TestListKindDescriptors(t *testing.T) {
	if PRP.EntryBytes() != 8 || PRDT.EntryBytes() != 16 || SGL.EntryBytes() != 16 {
		t.Fatal("descriptor sizes wrong")
	}
	if PRP.String() != "prp" || PRDT.String() != "prdt" || UPIU.String() != "upiu" || SGL.String() != "sgl" {
		t.Fatal("kind names wrong")
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	e := newEngine(t, Timing, false)
	pl4k, _ := Build(PRP, 4096, 4096, nil)
	d1 := e.Transfer(0, pl4k, true)
	e2 := newEngine(t, Timing, false)
	pl64k, _ := Build(PRP, 65536, 4096, nil)
	d2 := e2.Transfer(0, pl64k, true)
	if d2 <= d1 {
		t.Fatalf("64K (%v) should take longer than 4K (%v)", d2, d1)
	}
	if e2.Stats().Descriptors != 16 || e2.Stats().Entries != 16 {
		t.Fatalf("Descriptors/Entries = %d/%d, want 16/16 (unknown layout must not batch)",
			e2.Stats().Descriptors, e2.Stats().Entries)
	}
	if e2.Stats().BytesMoved != 65536 {
		t.Fatalf("BytesMoved = %d", e2.Stats().BytesMoved)
	}
}

func TestFunctionalAggregates(t *testing.T) {
	e := newEngine(t, Functional, false)
	pl, _ := Build(PRP, 65536, 4096, nil)
	e.Transfer(0, pl, true)
	if e.Stats().Descriptors != 1 {
		t.Fatalf("functional mode made %d descriptors", e.Stats().Descriptors)
	}
	if e.Stats().Entries != 16 {
		t.Fatalf("functional mode walked %d entries, want 16", e.Stats().Entries)
	}
}

// TestContiguousBatching locks in the descriptor-batching contract: a
// physically contiguous Timing-mode list claims link/memory once for the
// whole run, while stats keep the pre-batching entry count.
func TestContiguousBatching(t *testing.T) {
	link := sim.NewResource("link")
	e, err := New(Config{
		Link: link, LinkBytesPerSec: 3.2e9,
		HostMem: sim.NewResource("m"), HostMemBytesPerSec: 12.8e9,
		Mode: Timing,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildContiguous(PRP, 65536, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Transfer(0, pl, true)
	st := e.Stats()
	if st.Descriptors != 1 || st.Entries != 16 {
		t.Fatalf("Descriptors/Entries = %d/%d, want 1/16", st.Descriptors, st.Entries)
	}
	if st.BytesMoved != 65536 {
		t.Fatalf("BytesMoved = %d", st.BytesMoved)
	}
	if n := link.State().Claims; n != 1 {
		t.Fatalf("link claimed %d times, want 1", n)
	}
}

// TestNonContiguousTimingUnchanged: an unknown-layout list must produce
// exactly the same claim sequence (and therefore the same completion time)
// as the historical per-entry loop.
func TestNonContiguousTimingUnchanged(t *testing.T) {
	plain := newEngine(t, Timing, false)
	pl, _ := Build(PRP, 65536, 4096, nil)
	got := plain.Transfer(0, pl, true)

	// Reference: replay the per-entry arbitration by hand.
	link := sim.NewResource("link")
	mem := sim.NewResource("m")
	want := sim.Time(0)
	for i := 0; i < 16; i++ {
		_, memDone := mem.Claim(0, sim.TransferTime(4096, 12.8e9))
		_, linkDone := link.Claim(memDone, sim.TransferTime(4096, 3.2e9))
		if linkDone > want {
			want = linkDone
		}
	}
	if got != want {
		t.Fatalf("unknown-layout Timing transfer changed: got %v, want %v", got, want)
	}
}

func TestHostControllerCopyCostsMore(t *testing.T) {
	plain := newEngine(t, Timing, false)
	copied := newEngine(t, Timing, true)
	pl, _ := Build(PRDT, 65536, 4096, nil)
	d1 := plain.Transfer(0, pl, true)
	d2 := copied.Transfer(0, pl, true)
	if d2 <= d1 {
		t.Fatalf("h-type double copy (%v) should exceed direct DMA (%v)", d2, d1)
	}
}

func TestWalkListChargesDescriptors(t *testing.T) {
	e := newEngine(t, Timing, false)
	pl, _ := Build(PRP, 65536, 4096, nil) // 16 entries x 8 bytes
	done := e.WalkList(0, pl)
	if done == 0 {
		t.Fatal("walk took no time")
	}
	if e.Stats().DescriptorBytes != 128 {
		t.Fatalf("DescriptorBytes = %d", e.Stats().DescriptorBytes)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	link := sim.NewResource("link")
	mk := func() *Engine {
		e, err := New(Config{
			Link: link, LinkBytesPerSec: 1e9,
			HostMem: sim.NewResource("m"), HostMemBytesPerSec: 100e9,
			Mode: Functional,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	pl, _ := Build(PRP, 1<<20, 4096, nil)
	d1 := a.Transfer(0, pl, true)
	d2 := b.Transfer(0, pl, false)
	if d2 < d1 {
		t.Fatalf("shared link should serialize: %v then %v", d1, d2)
	}
}

func TestZeroLengthTransferFree(t *testing.T) {
	e := newEngine(t, Timing, false)
	if done := e.Transfer(42, PointerList{PageSize: 4096}, true); done != 42 {
		t.Fatalf("zero transfer advanced time to %v", done)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Link: sim.NewResource("l"), HostMem: sim.NewResource("m")}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}
