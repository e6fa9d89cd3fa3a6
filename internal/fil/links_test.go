package fil

import (
	"bytes"
	"strings"
	"testing"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// armedStack builds a certified-bound flash/FTL/FIL stack over g.
func armedStack(tb testing.TB, g nand.Geometry, trackData bool, mutate func(*ftl.Config)) (*FIL, *ftl.FTL, *nand.Flash) {
	tb.Helper()
	fl, err := nand.New(g, testTiming, nand.Power{}, nand.MLC, nand.Options{TrackData: trackData})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ftl.Config{Geometry: g, OPRatio: 0.1, PartialUpdate: true}
	if mutate != nil {
		mutate(&cfg)
	}
	tr, err := ftl.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(fl, tr.Address)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.AcceptCertified(tr); err != nil {
		tb.Fatal(err)
	}
	return f, tr, fl
}

// TestWalkedVsCertifiedPlanByPlan is the executor-side proof that the
// pre-read map could go: the same GC-heavy stream runs through a stack
// that trusts the FTL-stamped links (certified) and one that derives them
// itself with the reference rule (forced walk), and after every single
// plan the two must agree on the Result, on every FIL counter — DepStalls
// is the one a wrong link moves — and on the bytes now stored for the
// super-page just written. Modes cover what shapes the links: partial
// remaps, read-modify-write (a pre-read and a GC read of the same sub in
// one plan), wear-levelling, and RAIN parity programs sitting between a
// read and its rewrite.
func TestWalkedVsCertifiedPlanByPlan(t *testing.T) {
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 256,
	}
	for _, m := range []struct {
		name   string
		mutate func(*ftl.Config)
	}{
		{"partial-update", nil},
		{"rmw", func(c *ftl.Config) { c.PartialUpdate = false }},
		{"wear-level", func(c *ftl.Config) { c.WearLevelDelta = 2 }},
		{"rain-rmw", func(c *ftl.Config) { c.RAINWidth = 3; c.PartialUpdate = false }},
	} {
		t.Run(m.name, func(t *testing.T) {
			fFast, trFast, flFast := armedStack(t, g, true, m.mutate)
			fWalk, trWalk, flWalk := armedStack(t, g, true, m.mutate)
			fWalk.forceWalk = true
			eF, eW := sim.NewEngine(), sim.NewEngine()
			domsF, domsW := chDomsFor(t, eF, flFast), chDomsFor(t, eW, flWalk)

			subs := trFast.SubPagesPerSuperPage()
			ps := g.PageSize
			stored := func(tr *ftl.FTL, fl *nand.Flash, lspn int64) []byte {
				out := make([]byte, subs*ps)
				for sub := 0; sub < subs; sub++ {
					if loc, ok := tr.LookupSub(lspn, sub); ok {
						fl.PagePayload(tr.Address(loc), out[sub*ps:(sub+1)*ps])
					}
				}
				return out
			}

			now := sim.Time(0)
			rng := sim.NewRNG(29)
			user := uint64(trFast.UserSuperPages())
			payload := make([]byte, subs*ps)
			write := func(n int, lspn int64, dirty []bool) {
				t.Helper()
				for i := range payload {
					payload[i] = byte(n*7 + i*3 + int(lspn))
				}
				hd := HostData(lspn, dirty, payload, ps)
				if dirty == nil {
					hd.Dirty = make([]bool, subs)
					for i := range hd.Dirty {
						hd.Dirty[i] = true
					}
				}
				planF, err := trFast.Write(now, lspn, dirty)
				if err != nil {
					t.Fatal(err)
				}
				resF, err := fFast.ExecuteOn(eF, domsF, now, planF, hd)
				if err != nil {
					t.Fatal(err)
				}
				planW, err := trWalk.Write(now, lspn, dirty)
				if err != nil {
					t.Fatal(err)
				}
				resW, err := fWalk.ExecuteOn(eW, domsW, now, planW, hd)
				if err != nil {
					t.Fatal(err)
				}
				if resF != resW {
					t.Fatalf("write %d (LSPN %d, %d ops): certified result %+v != walked %+v", n, lspn, len(planF.Ops), resF, resW)
				}
				sf, sw := fFast.Stats(), fWalk.Stats()
				if sf.CertifiedPlans != sf.PlanCount || sw.CertifiedPlans != 0 {
					t.Fatalf("write %d: certified leg fast-pathed %d/%d plans, walked leg %d", n, sf.CertifiedPlans, sf.PlanCount, sw.CertifiedPlans)
				}
				sf.CertifiedPlans = 0
				if sf != sw {
					t.Fatalf("write %d (LSPN %d, %d ops): fil stats diverged: certified %+v walked %+v", n, lspn, len(planF.Ops), sf, sw)
				}
				if !bytes.Equal(stored(trFast, flFast, lspn), stored(trWalk, flWalk, lspn)) {
					t.Fatalf("write %d: LSPN %d stores different bytes after certified and walked execution", n, lspn)
				}
				now = resF.Done + sim.Microsecond
			}
			n := 0
			for lspn := int64(0); lspn < int64(user); lspn++ {
				write(n, lspn, nil)
				n++
			}
			for i := 0; i < 600; i++ {
				lspn := int64(rng.Uint64n(user/4 + 1))
				if rng.Uint64n(4) == 0 {
					lspn = int64(rng.Uint64n(user))
				}
				dirty := make([]bool, subs)
				dirty[rng.Uint64n(uint64(subs))] = true
				for s := range dirty {
					if rng.Uint64n(3) == 0 {
						dirty[s] = true
					}
				}
				write(n, lspn, dirty)
				n++
			}
			eF.Run()
			eW.Run()
			if fFast.Stats().DepStalls == 0 || trFast.Stats().GCMigrated == 0 {
				t.Fatalf("no rewrite ever waited on its read (DepStalls %d, GCMigrated %d): vacuous",
					fFast.Stats().DepStalls, trFast.Stats().GCMigrated)
			}
			if flFast.Stats() != flWalk.Stats() {
				t.Fatalf("flash stats diverged: certified %+v walked %+v", flFast.Stats(), flWalk.Stats())
			}
			for lspn := int64(0); lspn < int64(user); lspn++ {
				if !bytes.Equal(stored(trFast, flFast, lspn), stored(trWalk, flWalk, lspn)) {
					t.Fatalf("LSPN %d bytes diverged between certified and walked execution", lspn)
				}
			}
		})
	}
}

// TestNewRejectsInseparableAddrFunc pins the plane table's precondition:
// an address function whose channel, package, die or plane depend on more
// than the location's plane — or whose block and page are not the
// super-block and page passed through — cannot be tabulated per plane.
func TestNewRejectsInseparableAddrFunc(t *testing.T) {
	_, tr, fl := newStack(t, false)
	g := fl.Geometry()
	for name, fn := range map[string]AddrFunc{
		"channel depends on the page": func(l ftl.PageLoc) nand.Address {
			a := tr.Address(l)
			a.Channel = (a.Channel + l.Page) % g.Channels
			return a
		},
		"block is not the super-block": func(l ftl.PageLoc) nand.Address {
			a := tr.Address(l)
			a.Block = (a.Block + 1) % g.BlocksPerPlane
			return a
		},
		"plane outside the geometry": func(l ftl.PageLoc) nand.Address {
			a := tr.Address(l)
			a.Plane += g.PlanesPerDie
			return a
		},
	} {
		if _, err := New(fl, fn); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	f, err := New(fl, tr.Address)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built location on a plane the table does not have is an error,
	// not an index panic.
	_, err = f.ReadSubsStaged(nil, nil, 0, []ftl.PageLoc{{Plane: g.TotalPlanes()}}, nil, ftl.ReadCert{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("read of plane %d: %v", g.TotalPlanes(), err)
	}
}

// TestExecuteOnSteadyStateAllocs gates the certified kernel at zero
// allocations per plan once its scratch (pre-read records, page buffers,
// erase undo records) has grown to the stream's largest plan.
func TestExecuteOnSteadyStateAllocs(t *testing.T) {
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 12, PagesPerBlock: 8, PageSize: 256,
	}
	for _, trackData := range []bool{false, true} {
		f, tr, fl := armedStack(t, g, trackData, nil)
		e := sim.NewEngine()
		doms := chDomsFor(t, e, fl)
		subs := tr.SubPagesPerSuperPage()
		dirty := make([]bool, subs)
		payload := make([]byte, subs*g.PageSize)
		user := tr.UserSuperPages()
		now := sim.Time(0)
		i := int64(0)
		step := func() {
			// A fixed stride over the volume with a rotating partial mask:
			// blocks age with valid subs left in them, so GC migrates, and
			// the stream recurs with period 3·user, so the warm-up sees
			// every plan shape the gate will.
			lspn := i * 7 % user
			for s := range dirty {
				dirty[s] = (int(i)+s)%3 != 0
			}
			i++
			plan, err := tr.Write(now, lspn, dirty)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.ExecuteOn(e, doms, now, plan, HostData(lspn, dirty, payload, g.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			// Advance the dispatch clock to the plan's end even when nothing
			// is queued (a timing-only flash schedules no event): the next
			// plan's erases prune the undo journal against it.
			e.RunUntil(res.Done)
			now = res.Done + sim.Microsecond
		}
		for i < 12*user {
			step()
		}
		if tr.Stats().GCMigrated == 0 || f.Stats().CertifiedPlans != f.Stats().PlanCount {
			t.Fatalf("warm-up: GCMigrated %d, certified %d of %d plans", tr.Stats().GCMigrated, f.Stats().CertifiedPlans, f.Stats().PlanCount)
		}
		if avg := testing.AllocsPerRun(int(3*user), step); avg != 0 {
			t.Errorf("trackData=%v: %.2f allocs per Write+ExecuteOn in steady state, want 0", trackData, avg)
		}
	}
}

// BenchmarkExecuteOnGCPlan times the certified kernel on the plan that
// dominates a GC-bound run: the migration of one (all but) fully valid
// super-block on the Intel 750 geometry — 15 240 reads, as many rewrites
// and the erase, 30 481 ops — timing-only and with tracked data. Each
// iteration overwrites one super-page (closing the block the previous
// migration filled, untimed) and then migrates that block whole through
// PlanScrub; only ExecuteOn is on the clock, and one untimed migration
// warms the scratch first, so allocs/op is the steady state's (0). The
// headline is ns per plan op.
func BenchmarkExecuteOnGCPlan(b *testing.B) {
	g := nand.Geometry{ // config.Intel750() with the block count cut (capacity only)
		Channels: 12, PackagesPerChannel: 5, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 6, PagesPerBlock: 128, PageSize: 8192,
	}
	for _, trackData := range []bool{false, true} {
		name := "timing"
		if trackData {
			name = "trackdata"
		}
		b.Run(name, func(b *testing.B) {
			f, tr, _ := armedStack(b, g, trackData, func(c *ftl.Config) { c.OPRatio = 0.5 })
			e := sim.NewEngine()
			doms := make([]sim.DomainID, g.Channels)
			for ch := range doms {
				doms[ch] = e.Domain(nand.ChannelDomain(ch))
			}
			subs := tr.SubPagesPerSuperPage()
			dirty := make([]bool, subs)
			for i := range dirty {
				dirty[i] = true
			}
			var payload []byte
			if trackData {
				payload = make([]byte, subs*g.PageSize)
				for i := range payload {
					payload[i] = byte(i)
				}
			}
			now := sim.Time(0)
			exec := func(plan ftl.Plan, hd PlanData) {
				res, err := f.ExecuteOn(e, doms, now, plan, hd)
				if err != nil {
					b.Fatal(err)
				}
				now = res.Done + sim.Microsecond
			}
			write := func(lspn int64) {
				plan, err := tr.Write(now, lspn, dirty)
				if err != nil {
					b.Fatal(err)
				}
				exec(plan, HostData(lspn, dirty, payload, g.PageSize))
				e.RunUntil(now) // the dispatch clock the erase-undo journal prunes by
			}
			// One super-block's worth of super-pages: fills block A exactly.
			for lspn := int64(0); lspn < int64(g.PagesPerBlock); lspn++ {
				write(lspn)
			}
			full := (g.PagesPerBlock - 1) * subs
			var ops int
			migrate := func() {
				write(0) // closes the full block, opens the next, leaves 127 rows valid behind
				victim := -1
				for sb := 0; sb < g.BlocksPerPlane; sb++ {
					if tr.Scrubbable(sb) && tr.ValidSubs(sb) == full {
						victim = sb
					}
				}
				plan, moved, err := tr.PlanScrub(now, victim)
				if err != nil || moved != full || !plan.Cert.By(tr) {
					b.Fatalf("scrub of SB %d moved %d of %d subs (certified %v): %v", victim, moved, full, plan.Cert.By(tr), err)
				}
				ops = len(plan.Ops)
				b.StartTimer()
				exec(plan, PlanData{})
				b.StopTimer()
				e.RunUntil(now)
			}
			b.StopTimer()
			migrate() // grows every scratch to the plan's size: the loop below is steady state
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				migrate()
			}
			if f.Stats().CertifiedPlans != f.Stats().PlanCount {
				b.Fatalf("%d of %d plans took the certified path", f.Stats().CertifiedPlans, f.Stats().PlanCount)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/planop")
			b.ReportMetric(float64(ops), "planops")
		})
	}
}
