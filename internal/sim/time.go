package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, measured in integer picoseconds.
//
// Picosecond resolution is required because the fastest clocks in the model
// (ONFi 3 at 333 MT/s, DDR3L tCK, PCIe symbol times) have sub-nanosecond
// periods; integer time keeps event ordering exact and runs reproducible.
// A uint64 of picoseconds covers about 213 simulated days, far beyond any
// experiment in the paper.
type Time uint64

// Duration is a span of simulated time in picoseconds. It is the same
// representation as Time; the separate name documents intent in APIs.
type Duration = Time

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxUint64

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns t as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds returns t as floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an auto-selected unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// FromSeconds converts floating-point seconds to a Time, saturating at
// MaxTime and flooring negative values to zero.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	ps := s * float64(Second)
	if ps >= math.MaxUint64 {
		return MaxTime
	}
	return Time(ps)
}

// FromMicroseconds converts floating-point microseconds to a Time.
func FromMicroseconds(us float64) Time { return FromSeconds(us * 1e-6) }

// FromNanoseconds converts floating-point nanoseconds to a Time.
func FromNanoseconds(ns float64) Time { return FromSeconds(ns * 1e-9) }

// TransferTime returns the time needed to move n bytes at the given
// bandwidth in bytes per second. Zero bandwidth yields MaxTime for n > 0
// (an unusable link), and zero bytes always take zero time.
func TransferTime(n int64, bytesPerSecond float64) Time {
	if n <= 0 {
		return 0
	}
	if bytesPerSecond <= 0 {
		return MaxTime
	}
	return FromSeconds(float64(n) / bytesPerSecond)
}

// MaxOf returns the later of two times.
func MaxOf(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
