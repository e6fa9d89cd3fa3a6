package stats

// Footprint returns the bytes l's allocated histogram rows hold.
func (l *Latency) Footprint() int {
	n := 0
	for _, row := range l.rows {
		if row != nil {
			n += len(row) * 8
		}
	}
	return n
}
