package nand

import (
	"fmt"
	"testing"

	"amber/internal/sim"
)

// refPageSum is pageSum's definition executed one byte at a time: every
// 64-bit word is assembled from its eight bytes by hand (no wide load, no
// slicing by block), word i of the payload goes to lane i mod 4 while a
// whole 32-byte block remains, the rest goes byte by byte into the folded
// state. The kernel has to agree with it at every length and alignment.
func refPageSum(data []byte) uint64 {
	lanes := [sumLanes]uint64{sumSeed0, sumSeed1, sumSeed2, sumSeed3}
	step := func(h, w uint64) uint64 {
		t := h ^ w
		t ^= t >> 32
		return t * sumMul
	}
	whole := len(data) / sumBlock * sumBlock
	for i := 0; i < whole; i += 8 {
		var w uint64
		for k := 0; k < 8; k++ {
			w |= uint64(data[i+k]) << (8 * k)
		}
		lane := i / 8 % sumLanes
		lanes[lane] = step(lanes[lane], w)
	}
	h := lanes[0]
	for _, l := range lanes[1:] {
		h = step(h, l)
	}
	for i := whole; i < len(data); i++ {
		h = step(h, uint64(data[i]))
	}
	return sumFinal(h ^ uint64(len(data)))
}

// TestPageSumMatchesReference: every length from empty through one whole
// block plus a seven-byte tail, at every offset into an 8-aligned backing
// array, so the kernel's word loads run at all eight alignments.
func TestPageSumMatchesReference(t *testing.T) {
	rng := sim.NewRNG(41)
	backing := make([]byte, 8+2*sumBlock+8)
	for i := range backing {
		backing[i] = byte(rng.Uint64())
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= sumLanes*8+7; n++ {
			p := backing[off : off+n]
			if got, want := pageSum(p), refPageSum(p); got != want {
				t.Errorf("offset %d length %d: kernel %#x, reference %#x", off, n, got, want)
			}
		}
	}
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(rng.Uint64())
	}
	if got, want := pageSum(page), refPageSum(page); got != want {
		t.Errorf("8 KiB page: kernel %#x, reference %#x", got, want)
	}
}

// TestPageSumDetects: what the stored checksum is for. Each of the 65 536
// single-bit flips of an 8 KiB page moves the sum (guaranteed by
// construction: every step is a bijection), and so does exchanging two
// words — in different lanes, in the same lane, and in the same lane of
// adjacent blocks, the cases a lane-parallel sum could be blind to.
func TestPageSumDetects(t *testing.T) {
	rng := sim.NewRNG(43)
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(rng.Uint64())
	}
	base := pageSum(page)
	seen := map[uint64]int{base: -1}
	for bit := 0; bit < 8*len(page); bit++ {
		page[bit/8] ^= 1 << (bit % 8)
		s := pageSum(page)
		page[bit/8] ^= 1 << (bit % 8)
		if s == 0 {
			t.Fatalf("flip of bit %d sums to 0, the untracked sentinel", bit)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("flip of bit %d has the sum of flip %d (-1: the intact page): %#x", bit, prev, s)
		}
		seen[s] = bit
	}
	if pageSum(page) != base {
		t.Fatal("the page did not survive the flips: test bug")
	}
	swap := func(a, b int) {
		var tmp [8]byte
		copy(tmp[:], page[8*a:])
		copy(page[8*a:8*a+8], page[8*b:8*b+8])
		copy(page[8*b:8*b+8], tmp[:])
	}
	for _, c := range []struct {
		what string
		a, b int
	}{
		{"lanes 0 and 1 of one block", 0, 1},
		{"lanes 1 and 3 of distant blocks", 5, 4*100 + 3},
		{"lane 2 of adjacent blocks", 2, 6},
		{"lane 0 of the first and the last block", 0, len(page)/8 - 4},
	} {
		swap(c.a, c.b)
		if pageSum(page) == base {
			t.Errorf("exchanging words %d and %d (%s) left the sum unchanged", c.a, c.b, c.what)
		}
		swap(c.a, c.b)
	}
	// Length is part of the sum: a payload and the same payload zero-extended
	// differ.
	if pageSum(page[:4096]) == pageSum(append(append([]byte(nil), page[:4096]...), make([]byte, 32)...)) {
		t.Error("a zero block appended to the payload left the sum unchanged")
	}
}

// TestSumFinalNeverZero: 0 in a page's OOB means "programmed without tracked
// data" and skips VerifyPage, so a payload
// whose mixed state comes out 0 must be stamped with something else. The
// finaliser is a bijection fixing 0, so 0 is its only zero and the remap is
// the only collision it introduces.
func TestSumFinalNeverZero(t *testing.T) {
	if got := sumFinal(0); got != sumZero || got == 0 {
		t.Fatalf("sumFinal(0) = %#x, want the non-zero stand-in %#x", got, uint64(sumZero))
	}
	rng := sim.NewRNG(47)
	for i := 0; i < 1<<16; i++ {
		x := rng.Uint64() | 1
		if sumFinal(x) == 0 {
			t.Fatalf("sumFinal(%#x) = 0", x)
		}
	}
	// End to end: a tracked program never stamps the sentinel, so it is never
	// mistaken for an untracked one.
	f := newTestFlash(t, Options{TrackData: true})
	addr := Address{}
	if _, err := f.Program(0, addr, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if f.sums[f.geo.PageIndex(addr)] == 0 {
		t.Fatal("a tracked all-zero payload was stamped with sum 0")
	}
}

// FuzzPageSum holds the kernel to the byte-at-a-time reference on arbitrary
// payloads at arbitrary alignments.
func FuzzPageSum(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456"), uint8(3))
	f.Add(make([]byte, 4096), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		o := int(off % 8)
		if o > len(data) {
			o = len(data)
		}
		p := data[o:]
		got := pageSum(p)
		if want := refPageSum(p); got != want {
			t.Fatalf("offset %d length %d: kernel %#x, reference %#x", o, len(p), got, want)
		}
		if got == 0 {
			t.Fatal("sum 0 is the untracked sentinel")
		}
	})
}

var sumSink uint64

// BenchmarkPageSum times the checksum on one page of each preset size; with
// SetBytes the figure to read is MB/s against what a copy of the page costs.
func BenchmarkPageSum(b *testing.B) {
	for _, size := range []int{4096, 8192, 16384} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			page := make([]byte, size)
			rng := sim.NewRNG(53)
			for i := range page {
				page[i] = byte(rng.Uint64())
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sumSink += pageSum(page)
			}
		})
	}
}
