package fil

import (
	"bytes"
	"errors"
	"testing"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/snap"
)

// Plan mutations the walk must reject, by FuzzPlanWalk's kind byte (modulo
// their count). walkIntact leaves the plan as the FTL built it.
const (
	walkIntact      = iota
	walkSrcLater    // a write's Src names itself or a later op
	walkSrcWrite    // a write's Src names an earlier write
	walkSrcOtherSub // a write's Src names a read of another (LSPN, Sub)
	walkOutOfOrder  // a write programs a page other than its block's next
	walkUnwritten   // a read targets a page of a block nothing has written
	walkPlaneRange  // a read or write names a plane outside the geometry
	walkSBRange     // an op names a super-block outside the geometry
	walkMutations   // the count
)

// planWalkSeeds is FuzzPlanWalk's committed corpus: one input per mutation
// kind (seed, random writes before the mutated plan, kind, op choice).
var planWalkSeeds = []struct {
	seed  uint64
	steps uint8
	kind  uint8
	at    uint16
}{
	{1, 40, walkIntact, 0},
	{2, 17, walkSrcLater, 3},
	{3, 90, walkSrcWrite, 1},
	{4, 33, walkSrcOtherSub, 5},
	{5, 8, walkOutOfOrder, 2},
	{6, 61, walkUnwritten, 0},
	{7, 25, walkPlaneRange, 4},
	{8, 70, walkSBRange, 9},
}

// mutatePlan applies mutation kind to the at-th op of ops it applies to
// (modulo the count) and reports whether any op qualified.
func mutatePlan(ops []ftl.Op, kind int, at int, fl *nand.Flash, tr *ftl.FTL) bool {
	g := fl.Geometry()
	var cands []int
	var srcs []int32 // the Src each candidate write gets
	dataWrite := func(op *ftl.Op) bool { return op.Kind == ftl.OpWrite && !op.Parity }
	for i := range ops {
		op := &ops[i]
		switch kind {
		case walkSrcLater:
			if dataWrite(op) {
				cands, srcs = append(cands, i), append(srcs, int32(i+1+at%(len(ops)-i)))
			}
		case walkSrcWrite, walkSrcOtherSub:
			if !dataWrite(op) {
				continue
			}
			// An earlier write of the same (LSPN, Sub) where there is one:
			// only the op's kind then tells it from the read it replaces.
			for j := i - 1; j >= 0; j-- {
				r := &ops[j]
				if kind == walkSrcWrite && dataWrite(r) && r.LSPN == op.LSPN && r.Loc.Sub == op.Loc.Sub ||
					kind == walkSrcOtherSub && r.Kind == ftl.OpRead && (r.LSPN != op.LSPN || r.Loc.Sub != op.Loc.Sub) {
					cands, srcs = append(cands, i), append(srcs, int32(j+1))
					break
				}
			}
		case walkOutOfOrder:
			if op.Kind == ftl.OpWrite {
				cands = append(cands, i)
			}
		case walkUnwritten:
			if op.Kind != ftl.OpRead {
				continue
			}
			if _, ok := unwrittenPage(ops, i, fl, tr); ok {
				cands = append(cands, i)
			}
		case walkPlaneRange:
			if op.Kind != ftl.OpErase {
				cands = append(cands, i)
			}
		case walkSBRange:
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := at % len(cands)
	op := &ops[cands[c]]
	switch kind {
	case walkSrcLater, walkSrcWrite, walkSrcOtherSub:
		op.Src = srcs[c]
	case walkOutOfOrder:
		op.Loc.Page = (op.Loc.Page + 1) % g.PagesPerBlock
	case walkUnwritten:
		op.Loc, _ = unwrittenPage(ops, cands[c], fl, tr)
	case walkPlaneRange:
		op.Loc.Plane = g.TotalPlanes() + at%3
	case walkSBRange:
		op.Loc.SB, op.SB = g.BlocksPerPlane+at%3, g.BlocksPerPlane+at%3
	}
	return true
}

// unwrittenPage finds, on the plane ops[i] reads from, a page no program
// has written by the time ops[i] issues: the program pointer of some block,
// as the flash holds it and the plan's earlier programs and erases move it.
func unwrittenPage(ops []ftl.Op, i int, fl *nand.Flash, tr *ftl.FTL) (ftl.PageLoc, bool) {
	loc := ops[i].Loc
	for loc.SB = 0; loc.SB < fl.Geometry().BlocksPerPlane; loc.SB++ {
		loc.Page = fl.NextProgramPage(tr.Address(loc))
		for _, op := range ops[:i] {
			switch {
			case op.Kind == ftl.OpWrite && op.Loc.SB == loc.SB && op.Loc.Plane == loc.Plane:
				loc.Page = op.Loc.Page + 1
			case op.Kind == ftl.OpErase && op.SB == loc.SB:
				loc.Page = 0
			}
		}
		if loc.Page < fl.Geometry().PagesPerBlock {
			return loc, true
		}
	}
	return loc, false
}

// flashImage is the flash's state image, to compare whole device states.
func flashImage(t *testing.T, fl *nand.Flash) []byte {
	t.Helper()
	c := snap.Encoding()
	if err := fl.State(c); err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// planWalkCase drives one GC-heavy write stream through a certified stack
// and, in lockstep, a stack that walks every plan. Every plan before the
// mutated one must run identically on both. Past steps random writes, the
// first plan kind applies to is mutated on the walked stack: the walk must
// reject it with nothing issued — flash Stats, FIL Stats and the flash's
// state image unchanged. walkIntact runs one more plan intact and compares
// the two flashes' images. It reports whether the mutation applied.
func planWalkCase(t *testing.T, seed uint64, steps uint8, kind uint8, at uint16) bool {
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 256,
	}
	mutate := []func(*ftl.Config){
		nil,
		func(c *ftl.Config) { c.PartialUpdate = false },
		func(c *ftl.Config) { c.WearLevelDelta = 2 },
		func(c *ftl.Config) { c.RAINWidth = 3; c.PartialUpdate = false },
	}[seed%4]
	fCert, trCert, flCert := armedStack(t, g, true, mutate)
	fWalk, trWalk, flWalk := armedStack(t, g, true, mutate)
	fWalk.forceWalk = true
	k := int(kind) % walkMutations
	subs := trCert.SubPagesPerSuperPage()
	user := uint64(trCert.UserSuperPages())
	payload := make([]byte, subs*g.PageSize)
	rng := sim.NewRNG(seed)
	now := sim.Time(0)
	for n := 0; ; n++ {
		lspn, dirty := int64(n), make([]bool, subs)
		for s := range dirty {
			dirty[s] = n < int(user) || rng.Uint64n(3) == 0
		}
		if n >= int(user) {
			lspn = int64(rng.Uint64n(user))
			dirty[rng.Uint64n(uint64(subs))] = true
		}
		for i := range payload {
			payload[i] = byte(n*7 + i*3)
		}
		hd := HostData(lspn, dirty, payload, g.PageSize)
		planC, errC := trCert.Write(now, lspn, dirty)
		planW, errW := trWalk.Write(now, lspn, dirty)
		if errC != nil || errW != nil {
			t.Fatalf("write %d: %v / %v", n, errC, errW)
		}
		if k != walkIntact && n >= int(user)+int(steps) && mutatePlan(planW.Ops, k, int(at), flWalk, trWalk) {
			sf, sfl, img := fWalk.Stats(), flWalk.Stats(), flashImage(t, flWalk)
			_, err := fWalk.ExecuteOn(nil, nil, now, planW, hd)
			var pf *PlanFault
			if err == nil || errors.As(err, &pf) {
				t.Fatalf("write %d: mutation %d of a %d-op plan not rejected by the walk: %v", n, k, len(planW.Ops), err)
			}
			if fWalk.Stats() != sf || flWalk.Stats() != sfl || !bytes.Equal(flashImage(t, flWalk), img) {
				t.Fatalf("write %d: the rejected plan (%v) changed the device", n, err)
			}
			return true
		}
		if n > int(user)+int(steps)+64 {
			return false
		}
		resC, errC := fCert.ExecuteOn(nil, nil, now, planC, hd)
		resW, errW := fWalk.ExecuteOn(nil, nil, now, planW, hd)
		if errC != nil || errW != nil {
			t.Fatalf("write %d: %v / %v", n, errC, errW)
		}
		if resC != resW || fCert.Stats() != fWalk.Stats() || flCert.Stats() != flWalk.Stats() {
			t.Fatalf("write %d (%d ops): certified %+v %+v, walked %+v %+v", n, len(planC.Ops), resC, fCert.Stats(), resW, fWalk.Stats())
		}
		now = resC.Done + sim.Microsecond
		if n == int(user)+int(steps) && k == walkIntact {
			if !bytes.Equal(flashImage(t, flCert), flashImage(t, flWalk)) {
				t.Fatalf("write %d: the walked flash's image differs from the certified one's", n)
			}
			return true
		}
	}
}

// FuzzPlanWalk holds the walk to every check it makes: a plan mutated to
// link a rewrite to a later op, a write or another sub-page's read, to
// program out of order, to read an unwritten page, or to name a plane or
// super-block outside the geometry is rejected with the device untouched,
// and an intact plan forced through the walk runs exactly as the
// certified one.
func FuzzPlanWalk(f *testing.F) {
	for _, s := range planWalkSeeds {
		f.Add(s.seed, s.steps, s.kind, s.at)
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, kind uint8, at uint16) {
		planWalkCase(t, seed, steps, kind, at)
	})
}

// TestPlanWalkSeedsMutate keeps FuzzPlanWalk's corpus meaningful: each
// committed input's mutation applies to a plan of its stream.
func TestPlanWalkSeedsMutate(t *testing.T) {
	seen := make([]bool, walkMutations)
	for _, s := range planWalkSeeds {
		if !planWalkCase(t, s.seed, s.steps, s.kind, s.at) {
			t.Errorf("seed %+v: no plan of the stream took mutation %d", s, s.kind)
		}
		seen[s.kind] = true
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("no committed input for mutation %d", k)
		}
	}
}
