package nand

import "unsafe"

// Footprint returns the bytes f's page and block metadata holds: the OOB
// stamps, the payload checksums, the written map and the block table.
func (f *Flash) Footprint() int {
	n := len(f.oob)*int(unsafe.Sizeof(pageOOB{})) + len(f.sums)*int(unsafe.Sizeof(f.sums[0]))
	n += len(f.blocks) * int(unsafe.Sizeof(blockState{}))
	for i := range f.blocks {
		n += len(f.blocks[i].written)
	}
	return n
}
