package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", uint64(Second))
	}
	if got := (2 * Microsecond).Microseconds(); got != 2 {
		t.Fatalf("Microseconds() = %v, want 2", got)
	}
	if got := FromMicroseconds(59.975); got != 59_975*Nanosecond {
		t.Fatalf("FromMicroseconds(59.975) = %v", got)
	}
	if FromSeconds(-1) != 0 {
		t.Fatal("negative seconds should clamp to zero")
	}
	if FromSeconds(1e30) != MaxTime {
		t.Fatal("huge seconds should saturate")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{12 * Microsecond, "12us"},
		{7 * Millisecond, "7ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 4 KiB at 1 GiB/s = 4096/2^30 s.
	got := TransferTime(4096, float64(1<<30))
	want := FromSeconds(4096.0 / float64(1<<30))
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	if TransferTime(0, 100) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if TransferTime(1, 0) != MaxTime {
		t.Fatal("zero bandwidth should be unusable")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(Nanosecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*Nanosecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d*Nanosecond, func() { fired = append(fired, d) })
	}
	e.RunUntil(12 * Nanosecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 12*Nanosecond {
		t.Fatalf("Now = %v, want 12ns", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(5*Nanosecond, func() {})
}

func TestEngineDispatchedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Dispatched() != 7 {
		t.Fatalf("Dispatched = %d, want 7", e.Dispatched())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceContention(t *testing.T) {
	r := NewResource("bus")
	s1, e1 := r.Claim(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first claim [%v,%v)", s1, e1)
	}
	// Second claim arrives at 5 but must wait until 10.
	s2, e2 := r.Claim(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second claim [%v,%v), want [10,20)", s2, e2)
	}
	// Third claim arrives after the resource is idle.
	s3, e3 := r.Claim(100, 10)
	if s3 != 100 || e3 != 110 {
		t.Fatalf("third claim [%v,%v), want [100,110)", s3, e3)
	}
	if r.BusyTime() != 30 {
		t.Fatalf("BusyTime = %v, want 30", r.BusyTime())
	}
	if r.Claims() != 3 {
		t.Fatalf("Claims = %d", r.Claims())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("die")
	r.Claim(0, 25)
	r.Claim(0, 25)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(10); u != 1 {
		t.Fatalf("Utilization should clamp to 1, got %v", u)
	}
	r.Reset()
	if r.BusyTime() != 0 || r.FreeAt() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestPoolPicksEarliestFree(t *testing.T) {
	p := NewPool("cores", 2)
	_, _, sv0 := p.Claim(0, 100)
	_, _, sv1 := p.Claim(0, 50)
	if sv0 == sv1 {
		t.Fatal("two concurrent claims should use distinct servers")
	}
	// Next claim at t=0 should go to the server free at 50.
	start, end, _ := p.Claim(0, 10)
	if start != 50 || end != 60 {
		t.Fatalf("third claim [%v,%v), want [50,60)", start, end)
	}
}

func TestPoolClaimServerPinned(t *testing.T) {
	p := NewPool("cores", 3)
	s1, e1 := p.ClaimServer(1, 0, 40)
	if s1 != 0 || e1 != 40 {
		t.Fatalf("pinned claim [%v,%v)", s1, e1)
	}
	s2, e2 := p.ClaimServer(1, 10, 40)
	if s2 != 40 || e2 != 80 {
		t.Fatalf("pinned claim must queue on its server: [%v,%v)", s2, e2)
	}
	// Other servers are still idle.
	s3, e3 := p.ClaimServer(0, 10, 5)
	if s3 != 10 || e3 != 15 {
		t.Fatalf("other server should be idle: [%v,%v)", s3, e3)
	}
}

// Property: a single-server resource never overlaps reservations and time
// never goes backwards.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		r := NewResource("x")
		now := Time(0)
		prevEnd := Time(0)
		for i, a := range arrivals {
			now += Time(a)
			d := Duration(10)
			if i < len(durs) {
				d = Duration(durs[i]) + 1
			}
			start, end := r.Claim(now, d)
			if start < now || start < prevEnd || end != start+d {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d collisions", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d draws", i, c, n)
		}
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		w := r.Range(5, 8)
		if w < 5 || w >= 8 {
			t.Fatalf("Range out of range: %v", w)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBoolBias(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*Nanosecond, func() { fired = true })
	e.Schedule(7*Nanosecond, func() { fired = true })
	e.RunUntil(2 * Nanosecond)
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("Reset left Pending=%d Now=%v", e.Pending(), e.Now())
	}
	e.Run()
	if fired {
		t.Fatal("event fired after Reset")
	}
	// The engine is fully usable after Reset.
	n := 0
	e.Schedule(Nanosecond, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatal("engine unusable after Reset")
	}
}

// TestEngineScheduleStepAllocFree locks in the tentpole guarantee: in
// steady state (heap storage warmed up), Schedule+Step allocate nothing.
func TestEngineScheduleStepAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the heap.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(10*Nanosecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.1f objects per run, want 0", allocs)
	}
}

func TestEngineStressRandomOrder(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(3)
	var prev Time
	fired := 0
	const n = 5000
	for i := 0; i < n; i++ {
		e.Schedule(Time(rng.Intn(1000))*Nanosecond, func() {
			if e.Now() < prev {
				t.Fatalf("time went backwards: %v after %v", e.Now(), prev)
			}
			prev = e.Now()
			fired++
		})
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d of %d", fired, n)
	}
}

func TestResourceClaimAtExactStart(t *testing.T) {
	r := NewResource("trace")
	s1, e1 := r.ClaimAt(100, 10)
	if s1 != 100 || e1 != 110 {
		t.Fatalf("ClaimAt = [%v,%v), want [100,110)", s1, e1)
	}
	// ClaimAt never queues: even though the resource is busy until 110,
	// the reservation starts exactly at the requested time.
	s2, e2 := r.ClaimAt(105, 10)
	if s2 != 105 || e2 != 115 {
		t.Fatalf("ClaimAt = [%v,%v), want [105,115)", s2, e2)
	}
	if r.FreeAt() != 115 {
		t.Fatalf("FreeAt = %v, want 115", r.FreeAt())
	}
	// An earlier exact claim must not rewind the free time.
	r.ClaimAt(50, 5)
	if r.FreeAt() != 115 {
		t.Fatalf("FreeAt rewound to %v", r.FreeAt())
	}
	if r.BusyTime() != 25 {
		t.Fatalf("BusyTime = %v, want 25", r.BusyTime())
	}
	// Claim still queues behind everything.
	s3, _ := r.Claim(60, 5)
	if s3 != 115 {
		t.Fatalf("Claim after ClaimAt started at %v, want 115", s3)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 500)
		}
	}
	e.Run()
}

func BenchmarkResourceClaim(b *testing.B) {
	r := NewResource("bench")
	for i := 0; i < b.N; i++ {
		r.Claim(Time(i), 10)
	}
}
