package ftl

import (
	"errors"
	"testing"

	"amber/internal/nand"
	"amber/internal/sim"
)

// uncorrectable is the error fil's executor wraps around a read whose every
// retry rung failed.
var uncorrectable = &nand.FaultError{Op: nand.OpRead, Err: nand.ErrUncorrectable}

// gcReadPlan overwrites random super-pages until a write's plan migrates a
// sub-page that want accepts, and returns the plan, the index of that GC
// read and the write's clock. The FTL's model is left as the plan built it,
// the state RecoverPlanFault sees when the read faults.
func gcReadPlan(t *testing.T, f *FTL, want func(plan Plan, i int) bool) (Plan, int, sim.Time) {
	t.Helper()
	rng := sim.NewRNG(5)
	now := sim.Time(0)
	for n := 0; n < 4000; n++ {
		now += sim.Microsecond
		plan, err := f.Write(now, int64(rng.Intn(int(f.UserSuperPages()))), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range plan.Ops {
			if op.Kind == OpRead && op.LSPN >= 0 && want(plan, i) {
				return plan, i, now
			}
		}
	}
	t.Fatal("no write migrated a sub-page the test wants")
	return Plan{}, 0, 0
}

// hostWriteAfter returns the index of the first host write of the read at
// plan.Ops[i]'s (LSPN, sub) after it, or -1.
func hostWriteAfter(plan Plan, i int) int {
	r := plan.Ops[i]
	for j := i + 1; j < len(plan.Ops); j++ {
		op := plan.Ops[j]
		if op.Kind == OpWrite && !op.GC && op.LSPN == r.LSPN && op.Loc.Sub == r.Loc.Sub {
			return j
		}
	}
	return -1
}

// TestReadFaultKeepsLaterHostWrite: a GC read of (L, S) faults in a plan
// that later host-writes (L, S). The host write carries the acknowledged
// bytes, so recovery keeps it verbatim and its mapping; only the migration
// write between them degrades to a padding burn, and nothing is lost.
func TestReadFaultKeepsLaterHostWrite(t *testing.T) {
	f := newTestFTL(t, nil)
	plan, i, now := gcReadPlan(t, f, func(plan Plan, i int) bool { return hostWriteAfter(plan, i) >= 0 })
	read, host := plan.Ops[i], plan.Ops[hostWriteAfter(plan, i)]
	rplan, err := f.RecoverPlanFault(now, plan, i, uncorrectable)
	if err != nil {
		t.Fatal(err)
	}
	if loc, ok := f.LookupSub(read.LSPN, read.Loc.Sub); !ok || loc != host.Loc {
		t.Fatalf("(%d, %d) maps to %v (mapped %v), want the host write's %v", read.LSPN, read.Loc.Sub, loc, ok, host.Loc)
	}
	if _, _, err := f.LookupSubs(nil, read.LSPN, []int{read.Loc.Sub}); err != nil {
		t.Fatalf("lookup of the rewritten sub: %v", err)
	}
	if n := f.Stats().LostSubs; n != 0 {
		t.Fatalf("%d subs lost, want 0: the host write superseded the faulted read", n)
	}
	kept := false
	for _, op := range rplan.Ops {
		if op.Kind == OpWrite && op.Loc == host.Loc {
			kept = !op.GC
		}
	}
	if !kept {
		t.Fatalf("recovery dropped or degraded the host write at %v:\n%v", host.Loc, rplan.Ops)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFaultLosesSub: a GC read that faults with no later host write of
// its sub loses the sub. A read of it fails with nand.ErrUncorrectable
// instead of serving zeroes, LookupSub reports it unmapped, and the next
// host write of the sub maps it again.
func TestReadFaultLosesSub(t *testing.T) {
	f := newTestFTL(t, nil)
	plan, i, now := gcReadPlan(t, f, func(plan Plan, i int) bool { return hostWriteAfter(plan, i) < 0 })
	read := plan.Ops[i]
	if _, err := f.RecoverPlanFault(now, plan, i, uncorrectable); err != nil {
		t.Fatal(err)
	}
	if n := f.Stats().LostSubs; n != 1 {
		t.Fatalf("%d subs lost, want 1", n)
	}
	if _, _, err := f.LookupSubs(nil, read.LSPN, f.AllSubs()); !errors.Is(err, nand.ErrUncorrectable) {
		t.Fatalf("lookup of a lost sub: err %v, want one wrapping nand.ErrUncorrectable", err)
	}
	if _, ok := f.LookupSub(read.LSPN, read.Loc.Sub); ok {
		t.Fatal("LookupSub maps a lost sub")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, f.SubPagesPerSuperPage())
	dirty[read.Loc.Sub] = true
	if _, err := f.Write(now+sim.Microsecond, read.LSPN, dirty); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.LookupSubs(nil, read.LSPN, f.AllSubs()); err != nil {
		t.Fatalf("lookup after the sub was written again: %v", err)
	}
}
