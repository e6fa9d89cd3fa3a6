package nand

import "unsafe"

// Footprint returns the bytes f's page and block metadata holds: the OOB
// stamps (written flags included), the payload checksums, the stripe masks
// and the block table.
func (f *Flash) Footprint() int {
	n := len(f.oob)*int(unsafe.Sizeof(pageOOB{})) + len(f.sums)*int(unsafe.Sizeof(f.sums[0]))
	n += len(f.stripes) * int(unsafe.Sizeof(uint32(0)))
	return n + len(f.blocks)*int(unsafe.Sizeof(blockState{}))
}

// SlotOfPage returns the metadata slot of global physical page pageIdx.
func (f *Flash) SlotOfPage(pageIdx int64) int64 { return f.slotOfPage(pageIdx) }

// SmallGeometry is the package tests' geometry, testGeometry.
var SmallGeometry = testGeometry

// InFlightJournal returns the programs the program journal holds and the
// chunks it holds, spares included.
func (f *Flash) InFlightJournal() (entries, chunks int) {
	return f.inFlight.n, len(f.inFlight.chunks) + len(f.inFlight.spare)
}
