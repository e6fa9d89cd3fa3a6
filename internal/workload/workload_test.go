package workload

import (
	"testing"
	"testing/quick"
)

func TestFIOValidation(t *testing.T) {
	if _, err := NewFIO(SeqRead, 0, 1<<20, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewFIO(SeqRead, 4096, 100, 1); err == nil {
		t.Fatal("span smaller than block accepted")
	}
}

func TestFIOName(t *testing.T) {
	for _, c := range []struct {
		p    Pattern
		bs   int
		want string
	}{
		{RandRead, 4096, "fio-rand-read-4k"},
		{SeqWrite, 1 << 20, "fio-seq-write-1024k"},
		{RandRead, 1, "fio-rand-read-1B"},
		{RandRead, 512, "fio-rand-read-512B"},
		{SeqRead, 1536, "fio-seq-read-1536B"},
	} {
		g, err := NewFIO(c.p, c.bs, 1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Name(); got != c.want {
			t.Errorf("NewFIO(%v, %d).Name() = %q, want %q", c.p, c.bs, got, c.want)
		}
	}
}

func TestFIOSequentialWraps(t *testing.T) {
	g, err := NewFIO(SeqWrite, 4096, 3*4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{}
	for i := 0; i < 6; i++ {
		r := g.Next(i)
		if !r.Write || r.Length != 4096 {
			t.Fatalf("request %d = %+v", i, r)
		}
		offs = append(offs, r.Offset)
	}
	want := []int64{0, 4096, 8192, 0, 4096, 8192}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets = %v", offs)
		}
	}
}

func TestFIORandomInBounds(t *testing.T) {
	g, err := NewFIO(RandRead, 4096, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i uint16) bool {
		r := g.Next(int(i))
		return r.Offset >= 0 && r.Offset+int64(r.Length) <= 1<<20 &&
			r.Offset%4096 == 0 && !r.Write
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternClassification(t *testing.T) {
	if SeqRead.IsWrite() || RandRead.IsWrite() || !SeqWrite.IsWrite() || !RandWrite.IsWrite() {
		t.Fatal("IsWrite wrong")
	}
	if SeqRead.IsRandom() || !RandRead.IsRandom() || SeqWrite.IsRandom() || !RandWrite.IsRandom() {
		t.Fatal("IsRandom wrong")
	}
	if SeqRead.String() != "seq-read" || RandWrite.String() != "rand-write" {
		t.Fatal("names wrong")
	}
}

func TestTraceMatchesMarginals(t *testing.T) {
	for _, tp := range Traces() {
		g, err := NewTrace(tp, 1<<30, 7)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20000
		var reads, readBytes, writeBytes, writes int
		for i := 0; i < n; i++ {
			r := g.Next(i)
			if r.Offset < 0 || r.Offset+int64(r.Length) > 1<<30 {
				t.Fatalf("%s: request out of span: %+v", tp.TraceName, r)
			}
			if r.Length%4096 != 0 {
				t.Fatalf("%s: unaligned length %d", tp.TraceName, r.Length)
			}
			if r.Write {
				writes++
				writeBytes += r.Length
			} else {
				reads++
				readBytes += r.Length
			}
		}
		gotRatio := float64(reads) / n
		if diff := gotRatio - tp.ReadRatio; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: read ratio %.3f, want %.2f", tp.TraceName, gotRatio, tp.ReadRatio)
		}
		if reads > 0 {
			meanKB := float64(readBytes) / float64(reads) / 1024
			if meanKB < tp.AvgReadKB*0.7 || meanKB > tp.AvgReadKB*1.4 {
				t.Errorf("%s: mean read %.1f KB, want ~%.1f", tp.TraceName, meanKB, tp.AvgReadKB)
			}
		}
		if writes > 0 {
			meanKB := float64(writeBytes) / float64(writes) / 1024
			if meanKB < tp.AvgWriteKB*0.7 || meanKB > tp.AvgWriteKB*1.4 {
				t.Errorf("%s: mean write %.1f KB, want ~%.1f", tp.TraceName, meanKB, tp.AvgWriteKB)
			}
		}
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(Trace24HR, 100, 1); err == nil {
		t.Fatal("tiny span accepted")
	}
	bad := Trace24HR
	bad.ReadRatio = 1.5
	if _, err := NewTrace(bad, 1<<30, 1); err == nil {
		t.Fatal("bad ratio accepted")
	}
}

func TestTraceDeterminism(t *testing.T) {
	a, _ := NewTrace(TraceCFS, 1<<30, 42)
	b, _ := NewTrace(TraceCFS, 1<<30, 42)
	for i := 0; i < 100; i++ {
		if a.Next(i) != b.Next(i) {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestMixedPhases(t *testing.T) {
	m, err := NewMixed("x", 10, 4096, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r := m.Next(i)
		if (i < 10) != r.Write {
			t.Fatalf("request %d write=%v", i, r.Write)
		}
	}
	if _, err := NewMixed("x", 0, 4096, 1<<20, 1); err == nil {
		t.Fatal("zero write count accepted")
	}
	if m.Name() != "x" {
		t.Fatal("name wrong")
	}
}
