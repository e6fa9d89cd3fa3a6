package ftl

import "unsafe"

// Footprint returns the bytes f's forward and reverse maps hold.
func (f *FTL) Footprint() int {
	return (len(f.fwd) + len(f.rev)) * int(unsafe.Sizeof(f.rev[0]))
}
