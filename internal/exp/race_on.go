//go:build race

package exp

// raceDetectorEnabled reports whether this binary was built with -race.
// The experiment smoke test uses it to skip the multi-minute sweeps, whose
// race-relevant machinery (the parallel fan-out across systems) is covered by
// the cheaper experiments here.
const raceDetectorEnabled = true
