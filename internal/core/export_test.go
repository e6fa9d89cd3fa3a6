package core

// PoisonFlashPool writes 0xA5 into every page buffer in the flash's staging
// pool, bytes no page holds and every taker must overwrite, and hands them
// back in the order it took them.
func PoisonFlashPool(s *System) {
	_, _, n := s.Flash.Buffers()
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = s.Flash.StagingBuf()
		for j := range bufs[i] {
			bufs[i][j] = 0xA5
		}
	}
	for i := n - 1; i >= 0; i-- {
		s.Flash.ReleaseStagingBuf(bufs[i])
	}
}

// FillTable reports the in-flight fill table: the LSPNs with a fetch in
// flight, the entries it has ever allocated, and the readers parked now.
func FillTable(s *System) (inFlight, entries, parked int) {
	for i := range s.fills {
		parked += len(s.fills[i].waiters)
	}
	return s.fillsInFlight(), len(s.fills), parked
}
