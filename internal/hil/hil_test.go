package hil

import (
	"testing"
	"testing/quick"
)

func TestSplitterBasics(t *testing.T) {
	s, err := NewSplitter(4096, 4) // 16 KiB lines
	if err != nil {
		t.Fatal(err)
	}
	if s.LineBytes() != 16384 {
		t.Fatalf("LineBytes = %d", s.LineBytes())
	}
	// 4 KiB read at offset 0: one line, one sub.
	lines, err := s.SplitInto(nil, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != (Line{LSPN: 0, FirstSub: 0, NumSubs: 1, ByteOff: 0, ByteLen: 4096}) {
		t.Fatalf("lines = %+v", lines)
	}
}

func TestSplitCrossesLines(t *testing.T) {
	s, _ := NewSplitter(4096, 4)
	// 20 KiB starting 8 KiB into line 0: subs 2,3 of line 0 + sub 0..2 of line 1.
	lines, err := s.SplitInto(nil, 8192, 20480)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %+v", lines)
	}
	if lines[0].LSPN != 0 || lines[0].FirstSub != 2 || lines[0].NumSubs != 2 || lines[0].ByteLen != 8192 {
		t.Fatalf("line0 = %+v", lines[0])
	}
	if lines[1].LSPN != 1 || lines[1].FirstSub != 0 || lines[1].NumSubs != 3 || lines[1].ByteLen != 12288 {
		t.Fatalf("line1 = %+v", lines[1])
	}
}

func TestSplitSubPagePartial(t *testing.T) {
	s, _ := NewSplitter(4096, 4)
	// 1 KiB at offset 512: touches sub 0 only.
	lines, err := s.SplitInto(nil, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].FirstSub != 0 || lines[0].NumSubs != 1 {
		t.Fatalf("lines = %+v", lines)
	}
	// 1 KiB spanning the sub 0/1 boundary touches two subs.
	lines, err = s.SplitInto(nil, 3584, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].NumSubs != 2 {
		t.Fatalf("boundary lines = %+v", lines)
	}
}

func TestSplitRejectsBadArgs(t *testing.T) {
	s, _ := NewSplitter(4096, 4)
	if _, err := s.SplitInto(nil, -1, 4096); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.SplitInto(nil, 0, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := NewSplitter(0, 4); err == nil {
		t.Fatal("zero sub size accepted")
	}
}

// Property: split lines exactly tile the request byte range, in order,
// without overlap, and all sub ranges stay within the line.
func TestSplitTilesProperty(t *testing.T) {
	s, _ := NewSplitter(512, 8)
	f := func(off uint16, length uint16) bool {
		l := int(length%50000) + 1
		lines, err := s.SplitInto(nil, int64(off), l)
		if err != nil {
			return false
		}
		pos := 0
		prevLSPN := int64(-1)
		for _, ln := range lines {
			if ln.ByteOff != pos || ln.ByteLen <= 0 {
				return false
			}
			if ln.LSPN <= prevLSPN {
				return false
			}
			if ln.FirstSub < 0 || ln.FirstSub+ln.NumSubs > 8 {
				return false
			}
			prevLSPN = ln.LSPN
			pos += ln.ByteLen
		}
		return pos == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
