package sim

import "testing"

// claimLoop is the reference ClaimRun replaces: k separate claims.
func claimLoop(r *Resource, first Time, stride, dur Duration, k int) Time {
	end := r.FreeAt()
	for i := 0; i < k; i++ {
		_, end = r.Claim(first+Time(i)*stride, dur)
	}
	return end
}

// checkClaimRun compares ClaimRun with the Claim loop from one starting
// state: same returned time, same State().
func checkClaimRun(t *testing.T, st ResourceState, first Time, stride, dur Duration, k int) {
	t.Helper()
	got, want := NewResource("closed"), NewResource("loop")
	got.SetState(st)
	want.SetState(st)
	gotEnd := got.ClaimRun(first, stride, dur, k)
	wantEnd := claimLoop(want, first, stride, dur, k)
	if gotEnd != wantEnd || got.State() != want.State() {
		t.Fatalf("state %+v first=%d stride=%d dur=%d k=%d:\n closed form end=%d state=%+v\n claim loop  end=%d state=%+v",
			st, first, stride, dur, k, gotEnd, got.State(), wantEnd, want.State())
	}
}

// TestResourceClaimRunCases pins the regimes of the closed form: idle and
// backlogged resource, arrivals slower than, equal to and faster than the
// service time, one claim and none.
func TestResourceClaimRunCases(t *testing.T) {
	for _, freeAt := range []Time{0, 90, 100, 101, 150, 10_000} {
		for _, stride := range []Duration{0, 1, 4, 5, 6, 100} {
			for _, k := range []int{-1, 0, 1, 2, 3, 128} {
				checkClaimRun(t, ResourceState{FreeAt: freeAt, Busy: 7, Claims: 3}, 100, stride, 5, k)
			}
		}
	}
	checkClaimRun(t, ResourceState{FreeAt: 40}, 100, 9, 0, 6)
}

// FuzzResourceClaimRun is the proof that lets the per-burst loops go:
// ClaimRun against a loop of Claim on a cloned Resource, for arbitrary free
// time, backlog counters, arrival stream and service time. Two chained runs
// reproduce the DRAM use (a bank run feeding a bus run).
func FuzzResourceClaimRun(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(13750), uint64(5000), uint16(128))  // h > bt
	f.Add(uint64(500), uint64(100), uint64(5000), uint64(5000), uint16(7)) // h = bt
	f.Add(uint64(100), uint64(900), uint64(1250), uint64(5000), uint16(9)) // h < bt
	f.Add(uint64(1)<<40, uint64(3), uint64(0), uint64(1), uint16(1))       // k = 1
	f.Add(uint64(9), uint64(9), uint64(9), uint64(0), uint16(0))           // k = 0
	f.Fuzz(func(t *testing.T, freeAt, first, stride, dur uint64, k uint16) {
		// Keep every product inside uint64: the model's times are
		// picoseconds and stay below 2^40 per term.
		const mask = 1<<40 - 1
		st := ResourceState{FreeAt: Time(freeAt & mask), Busy: Duration(first & 0xffff), Claims: stride & 0xff}
		checkClaimRun(t, st, Time(first&mask), Duration(stride&mask), Duration(dur&mask), int(k))

		bank, bus := NewResource("bank"), NewResource("bus")
		bankRef, busRef := NewResource("bank"), NewResource("bus")
		bank.SetState(st)
		bankRef.SetState(st)
		busSt := ResourceState{FreeAt: Time((freeAt ^ dur) & mask)}
		bus.SetState(busSt)
		busRef.SetState(busSt)
		now, access, hit, bt := Time(first&mask), Duration(stride&mask), Duration(dur&mask), Duration(freeAt>>40)
		n := int(k)%512 + 1
		// Closed form: first burst resolves the row, the rest are hits.
		_, ready := bank.Claim(now, access)
		bank.ClaimRun(now, 0, hit, n-1)
		end := bus.ClaimRun(ready, hit, bt, n)
		// Reference: the per-burst walk.
		var endRef Time
		d := access
		for i := 0; i < n; i++ {
			_, r := bankRef.Claim(now, d)
			_, endRef = busRef.Claim(r, bt)
			d = hit
		}
		if end != endRef || bank.State() != bankRef.State() || bus.State() != busRef.State() {
			t.Fatalf("row run now=%d access=%d hit=%d bt=%d n=%d: end %d vs %d, bank %+v vs %+v, bus %+v vs %+v",
				now, access, hit, bt, n, end, endRef, bank.State(), bankRef.State(), bus.State(), busRef.State())
		}
	})
}
