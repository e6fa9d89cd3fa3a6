package nand

import "encoding/binary"

// The modeled payload checksum stamped into every programmed page's OOB.
// It runs over every tracked program, every VerifyPage and every staged
// install a power cut lands, so it has to cost about what reading the page
// costs: four independent lanes, each a xorshift-multiply chain over the
// little-endian 64-bit words it owns (word i of a 32-byte block goes to lane
// i), so the multiplier's latency overlaps fourfold instead of serialising
// on one dependent multiply per byte.
//
// What it guarantees, by construction rather than by luck: sumStep is a
// bijection of h for fixed w and of w for fixed h (xor, x ^ x>>32 and
// multiplication by an odd constant all are), the lane fold and the byte tail
// are chains of sumSteps, and sumFinal's avalanche is a bijection too — so
// two payloads of equal length that differ in exactly one word, which covers
// every single-bit flip, never share a sum, bar the one value sumFinal moves
// off zero. The xorshift is there for errors of more than one bit: it folds
// the high half of the state into the low half before the multiply, so even a
// flip of a word's top bit reaches the multiplier at bit 31 and spreads from
// there by carries. Without it that flip would stay a flip of bit 63 and the
// same flip one block later in the lane would cancel it, always.
//
// The stored sum is part of the nand state image (core.SnapshotVersion 4).
const (
	sumLanes = 4
	sumBlock = sumLanes * 8

	sumMul   = 0x9e3779b97f4a7c15 // odd: 2^64 / golden ratio
	sumSeed0 = 0x243f6a8885a308d3 // lane seeds: the first 256 fraction bits of pi
	sumSeed1 = 0x13198a2e03707344
	sumSeed2 = 0xa4093822299f31d0
	sumSeed3 = 0x082efa98ec4e6c89

	// sumZero is what a payload whose mixed sum comes out 0 is stamped with
	// instead: a stored 0 means "programmed without tracked data" and skips
	// verification, so it must never be a checksum.
	sumZero = 0x452821e638d01377
)

// pageSum returns the checksum of data: the lanes over its whole 32-byte
// blocks, the lane states folded in lane order, the remaining bytes (none for
// a real page) one step each, then the length and the final mix. Never 0.
func pageSum(data []byte) uint64 {
	n := uint64(len(data))
	h0, h1, h2, h3 := uint64(sumSeed0), uint64(sumSeed1), uint64(sumSeed2), uint64(sumSeed3)
	for len(data) >= sumBlock {
		h0 = sumStep(h0, binary.LittleEndian.Uint64(data[0:8]))
		h1 = sumStep(h1, binary.LittleEndian.Uint64(data[8:16]))
		h2 = sumStep(h2, binary.LittleEndian.Uint64(data[16:24]))
		h3 = sumStep(h3, binary.LittleEndian.Uint64(data[24:32]))
		data = data[sumBlock:]
	}
	h := sumStep(sumStep(sumStep(h0, h1), h2), h3)
	for _, b := range data {
		h = sumStep(h, uint64(b))
	}
	return sumFinal(h ^ n)
}

// sumStep absorbs one word into a lane (or one lane, or one tail byte, into
// the folded state).
func sumStep(h, w uint64) uint64 {
	t := h ^ w
	return (t ^ t>>32) * sumMul
}

// sumFinal is the closing avalanche (splitmix64's finaliser, a bijection)
// with its one zero output moved to sumZero.
func sumFinal(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		return sumZero
	}
	return h
}
