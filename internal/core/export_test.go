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
