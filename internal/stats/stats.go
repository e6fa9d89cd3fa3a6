// Package stats provides the measurement collectors the experiment harness
// uses: latency distributions, bandwidth computation, windowed time series
// (kernel CPU utilization and DRAM usage over time, Fig. 15), and error
// metrics against reference curves.
//
// Latency is a log-linear histogram over the integer picosecond duration
// (the HdrHistogram layout). Durations below 2^8 ps have a bucket each;
// above, each power of two [2^e, 2^(e+1)) is one row of 2^7 equal buckets
// 2^(e-7) ps wide, so no bucket is wider than 2^-7 of the values it holds.
// A row is allocated when its power of two is first reached: a run of
// microsecond-to-millisecond latencies holds a dozen 1 KiB rows, and no run
// can hold more than 58 (58 KiB) however many requests it completes. Count,
// Min, Max and Mean are exact; a percentile is the midpoint of the bucket
// holding the nearest-rank sample, clamped to [Min, Max], and is therefore
// within 2^-8 (0.39 %) of that sample.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"amber/internal/sim"
)

const (
	// subBits is log2 of the buckets per power of two: 2^7 linear buckets,
	// the widest 2^-7 of the smallest value they hold.
	subBits  = 7
	subCount = 1 << subBits
	// nRows covers every uint64: row 0 holds [0, 2^7) and row r >= 1 holds
	// [2^(r+6), 2^(r+7)), so 2^63..2^64-1 is row 57.
	nRows = 64 - subBits + 1
)

// PercentileBound is the largest relative distance between a percentile
// Latency reports and the exact nearest-rank sample: half a bucket, 2^-8.
const PercentileBound = 1.0 / (1 << (subBits + 1))

// Latency collects a latency distribution in microseconds. The zero value is
// empty and ready; Add allocates only the first time a power of two of
// picoseconds is reached.
type Latency struct {
	n    int
	sum  float64 // in Add order, so Mean is the same float as a slice's
	min  float64
	max  float64
	rows [nRows]*[subCount]uint64
}

// bucket returns the histogram row and bucket of a duration in picoseconds.
func bucket(ps uint64) (row, sub int) {
	r := bits.Len64(ps) - subBits
	if r <= 0 {
		return 0, int(ps)
	}
	return r, int(ps>>(r-1)) & (subCount - 1)
}

// midpoint returns the centre, in picoseconds, of the integers bucket (row,
// sub) holds.
func midpoint(row, sub int) float64 {
	if row == 0 {
		return float64(sub)
	}
	shift := row - 1
	lo := uint64(subCount+sub) << shift
	return float64(lo) + float64(uint64(1)<<shift-1)/2
}

// Add records one latency.
func (l *Latency) Add(d sim.Duration) {
	v := d.Microseconds()
	if l.n == 0 || v < l.min {
		l.min = v
	}
	if l.n == 0 || v > l.max {
		l.max = v
	}
	l.n++
	l.sum += v
	r, s := bucket(uint64(d))
	row := l.rows[r]
	if row == nil {
		row = new([subCount]uint64)
		l.rows[r] = row
	}
	row[s]++
}

// Count returns the sample count.
func (l *Latency) Count() int { return l.n }

// Mean returns the average latency in microseconds.
func (l *Latency) Mean() float64 {
	if l.n == 0 {
		return 0
	}
	return l.sum / float64(l.n)
}

// Min returns the smallest sample in microseconds.
func (l *Latency) Min() float64 { return l.min }

// Max returns the largest sample in microseconds.
func (l *Latency) Max() float64 { return l.max }

// Percentile returns the p-th percentile in microseconds by nearest rank:
// Min for p <= 0 and Max for p >= 100, both exact, and otherwise the
// midpoint of the rank's bucket clamped to [Min, Max], within
// PercentileBound of the exact sample.
func (l *Latency) Percentile(p float64) float64 {
	if l.n == 0 {
		return 0
	}
	if p <= 0 {
		return l.min
	}
	if p >= 100 {
		return l.max
	}
	rank := math.Ceil(p / 100 * float64(l.n))
	if !(rank >= 1) { // NaN p ranks first, as it always has
		rank = 1
	}
	var seen uint64
	for r, row := range l.rows {
		if row == nil {
			continue
		}
		for s, c := range row {
			if seen += c; seen >= uint64(rank) {
				v := midpoint(r, s) / float64(sim.Microsecond)
				return min(max(v, l.min), l.max)
			}
		}
	}
	return l.max // unreachable: the rows hold l.n >= rank samples
}

// BandwidthMBps converts bytes moved over a window into MB/s (decimal
// megabytes, as storage benchmarks report).
func BandwidthMBps(bytes int64, elapsed sim.Duration) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

// IOPS converts an operation count over a window into I/O per second.
func IOPS(ops int64, elapsed sim.Duration) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// Point is one time-series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean returns the average sample value.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Max returns the largest sample value.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// ErrorRate returns |ref-sim|/ref, the paper's accuracy metric
// (|Perf_real - Perf_sim| / Perf_real). A zero reference yields NaN-free 0.
func ErrorRate(ref, simulated float64) float64 {
	if ref == 0 {
		return 0
	}
	return math.Abs(ref-simulated) / math.Abs(ref)
}

// Accuracy returns 1 - ErrorRate clamped to [0, 1], matching the
// percentage labels in Figs. 8-9.
func Accuracy(ref, simulated float64) float64 {
	a := 1 - ErrorRate(ref, simulated)
	if a < 0 {
		return 0
	}
	return a
}

// MeanAccuracy averages Accuracy over paired curves.
func MeanAccuracy(ref, simulated []float64) (float64, error) {
	if len(ref) != len(simulated) || len(ref) == 0 {
		return 0, fmt.Errorf("stats: curves must be equal-length and non-empty")
	}
	var sum float64
	for i := range ref {
		sum += Accuracy(ref[i], simulated[i])
	}
	return sum / float64(len(ref)), nil
}

// Counter is a windowed rate tracker: the runner feeds cumulative values
// (e.g. CPU busy time) and reads back per-window deltas.
type Counter struct {
	lastT sim.Time
	lastV float64
}

// Delta returns the rate of change since the previous call: (v-prevV) /
// (t-prevT in seconds). The first call establishes the baseline and
// returns 0.
func (c *Counter) Delta(t sim.Time, v float64) float64 {
	if c.lastT == 0 && c.lastV == 0 {
		c.lastT, c.lastV = t, v
		return 0
	}
	dt := (t - c.lastT).Seconds()
	dv := v - c.lastV
	c.lastT, c.lastV = t, v
	if dt <= 0 {
		return 0
	}
	return dv / dt
}
