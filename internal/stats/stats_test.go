package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"amber/internal/sim"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(50) != 0 {
		t.Fatal("empty latency should be zero")
	}
	us := []float64{10, 20, 30, 40, 50}
	for _, v := range us {
		l.Add(sim.FromMicroseconds(v))
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	// Count, Min, Max and Mean are exact: the same floats a slice of the
	// samples gives.
	var sum float64
	for _, v := range us {
		sum += sim.FromMicroseconds(v).Microseconds()
	}
	if l.Mean() != sum/5 {
		t.Fatalf("Mean = %v, want %v", l.Mean(), sum/5)
	}
	lo, hi := sim.FromMicroseconds(10).Microseconds(), sim.FromMicroseconds(50).Microseconds()
	if l.Min() != lo || l.Max() != hi {
		t.Fatalf("Min/Max = %v/%v, want %v/%v", l.Min(), l.Max(), lo, hi)
	}
	if p := l.Percentile(0); p != lo {
		t.Fatalf("p0 = %v, want Min %v", p, lo)
	}
	if p := l.Percentile(100); p != hi {
		t.Fatalf("p100 = %v, want Max %v", p, hi)
	}
	// Nearest rank: p50 of five is the third sample, p20 the first.
	for _, c := range []struct{ p, want float64 }{{50, 30}, {20, 10}, {21, 20}, {99, 50}} {
		want := sim.FromMicroseconds(c.want).Microseconds()
		if got := l.Percentile(c.p); !withinBound(got, want) {
			t.Errorf("p%v = %v, want %v within %v", c.p, got, want, PercentileBound)
		}
	}
}

// withinBound reports whether got is within PercentileBound of want. The
// factor on the bound is float64 rounding: for a duration past 2^51 ps the
// bucket midpoint's own distance from the sample is within a few ulps of
// 2^-8.
func withinBound(got, want float64) bool {
	return math.Abs(got-want) <= want*PercentileBound*(1+1e-12)
}

// refLatency is the sorted-slice collector the histogram replaced: every
// sample kept, sorted for a percentile, nearest rank.
type refLatency struct {
	samples       []float64
	sum, min, max float64
}

func (r *refLatency) add(d sim.Duration) {
	v := d.Microseconds()
	if len(r.samples) == 0 || v < r.min {
		r.min = v
	}
	if len(r.samples) == 0 || v > r.max {
		r.max = v
	}
	r.samples = append(r.samples, v)
	r.sum += v
}

func (r *refLatency) percentile(p float64) float64 {
	s := slices.Sorted(slices.Values(r.samples))
	n := len(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// latencyInput encodes durations as the fuzzer's byte string: a shift byte
// then eight little-endian bytes, the duration being the value shifted
// right, so that every magnitude is as easy to reach as every other.
func latencyInput(ds ...uint64) []byte {
	var b []byte
	for _, d := range ds {
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b
}

// FuzzLatencyMatchesSorted holds the histogram to the sorted-slice reference
// over arbitrary durations: Count, Min, Max and Mean bit for bit, p <= 0 and
// p >= 100 exactly, and every other percentile within PercentileBound of the
// exact nearest-rank sample.
func FuzzLatencyMatchesSorted(f *testing.F) {
	f.Add(latencyInput(0), 50.0)
	f.Add(latencyInput(0, 1, 127, 128, 255, 256, 257), 50.0)
	f.Add(latencyInput(255, 256, 511, 512, 513, 1<<20-1, 1<<20, 1<<20+1), 99.9)
	f.Add(latencyInput(1<<8+1<<1, 1<<9+1<<2-1, 3<<40, 3<<40+1<<33), 1.0)
	f.Add(latencyInput(math.MaxUint64, math.MaxUint64-1, 1<<63, 1<<63-1, 1<<63+1<<56), 50.0)
	f.Add(latencyInput(12_345_678, 99_000_000, 1_000_000, 400_000_000, 7), 95.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		var l Latency
		var ref refLatency
		for ; len(data) >= 9; data = data[9:] {
			d := sim.Duration(binary.LittleEndian.Uint64(data[1:]) >> (data[0] % 64))
			l.Add(d)
			ref.add(d)
		}
		if len(ref.samples) == 0 {
			if l.Count() != 0 || l.Mean() != 0 || l.Percentile(p) != 0 {
				t.Fatal("empty histogram is not all zero")
			}
			return
		}
		if l.Count() != len(ref.samples) || l.Min() != ref.min || l.Max() != ref.max ||
			l.Mean() != ref.sum/float64(len(ref.samples)) {
			t.Fatalf("count/min/max/mean %d/%v/%v/%v, reference %d/%v/%v/%v", l.Count(), l.Min(), l.Max(), l.Mean(),
				len(ref.samples), ref.min, ref.max, ref.sum/float64(len(ref.samples)))
		}
		for _, q := range []float64{p, math.Inf(-1), -1, 0, 1e-9, 1, 25, 50, 90, 95, 99, 99.9, 99.999, 100, 150} {
			got, want := l.Percentile(q), ref.percentile(q)
			if q <= 0 || q >= 100 {
				if got != want {
					t.Fatalf("p%v = %v, want %v exactly", q, got, want)
				}
				continue
			}
			if !withinBound(got, want) {
				t.Fatalf("p%v = %v, exact %v: off by %.3g, bound %.3g", q, got, want, math.Abs(got-want)/want, PercentileBound)
			}
		}
	})
}

// TestLatencyAddDoesNotAllocate: once a value's row exists, Add allocates
// nothing.
func TestLatencyAddDoesNotAllocate(t *testing.T) {
	var l Latency
	d := 37 * sim.Microsecond
	l.Add(d)
	if a := testing.AllocsPerRun(1000, func() {
		d += 3 * sim.Picosecond // stays in 2^25..2^26 ps, the row Add made
		l.Add(d)
	}); a != 0 {
		t.Fatalf("Add allocates %v times a call", a)
	}
}

// TestLatencyBucketEdges: below 2^8 ps every duration has its own bucket,
// and from there each power of two splits into 2^7 buckets whose midpoint
// is within half a bucket of everything in it.
func TestLatencyBucketEdges(t *testing.T) {
	for ps := uint64(0); ps < 1<<8; ps++ {
		if r, s := bucket(ps); midpoint(r, s) != float64(ps) {
			t.Fatalf("%d ps: bucket (%d, %d) midpoint %v", ps, r, s, midpoint(r, s))
		}
	}
	for e := 8; e < 64; e++ {
		lo := uint64(1) << e
		for _, ps := range []uint64{lo, lo + 1, lo + lo>>7 - 1, lo + lo>>7, 2*lo - 1} {
			r, s := bucket(ps)
			if r != e-subBits+1 {
				t.Fatalf("%d ps (2^%d): row %d, want %d", ps, e, r, e-subBits+1)
			}
			if d := math.Abs(midpoint(r, s)-float64(ps)) / float64(ps); d > PercentileBound*(1+1e-12) {
				t.Fatalf("%d ps: midpoint %v is %.3g away", ps, midpoint(r, s), d)
			}
		}
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var l Latency
		for _, v := range vals {
			l.Add(sim.Time(v) * sim.Microsecond)
		}
		prev := l.Min()
		for p := 5.0; p <= 100; p += 5 {
			v := l.Percentile(p)
			if v < prev || v > l.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthAndIOPS(t *testing.T) {
	if bw := BandwidthMBps(1e6, sim.Second); bw != 1 {
		t.Fatalf("BandwidthMBps = %v", bw)
	}
	if bw := BandwidthMBps(100, 0); bw != 0 {
		t.Fatal("zero window should give 0")
	}
	if io := IOPS(1000, sim.Second); io != 1000 {
		t.Fatalf("IOPS = %v", io)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty series should be zero")
	}
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 20)
	if len(s.Points) != 3 || s.Mean() != 20 || s.Max() != 30 {
		t.Fatalf("series = %+v", s)
	}
}

func TestErrorAndAccuracy(t *testing.T) {
	if e := ErrorRate(100, 90); e != 0.1 {
		t.Fatalf("ErrorRate = %v", e)
	}
	if e := ErrorRate(0, 90); e != 0 {
		t.Fatal("zero ref should give 0")
	}
	if a := Accuracy(100, 90); a != 0.9 {
		t.Fatalf("Accuracy = %v", a)
	}
	if a := Accuracy(100, 300); a != 0 {
		t.Fatal("accuracy should clamp at 0")
	}
	m, err := MeanAccuracy([]float64{100, 200}, []float64{90, 180})
	if err != nil || m != 0.9 {
		t.Fatalf("MeanAccuracy = %v, %v", m, err)
	}
	if _, err := MeanAccuracy([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched curves accepted")
	}
}

func TestCounterDeltas(t *testing.T) {
	var c Counter
	if d := c.Delta(sim.Second, 5); d != 0 {
		t.Fatal("first call should baseline")
	}
	if d := c.Delta(2*sim.Second, 15); d != 10 {
		t.Fatalf("Delta = %v, want 10/s", d)
	}
	if d := c.Delta(2*sim.Second, 20); d != 0 {
		t.Fatal("zero-width window should give 0")
	}
}
