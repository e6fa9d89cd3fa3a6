package ftl

import (
	"slices"
	"testing"

	"amber/internal/nand"
	"amber/internal/sim"
)

// linkTally counts what a checked plan exercised, so the test can prove
// the interesting shapes occurred at all.
type linkTally struct {
	plans        int
	linked       int // writes with a non-zero Src
	hostLinked   int // non-GC writes linked to a read (RMW fill, or a GC move of the sub under write)
	rereads      int // links whose (LSPN, Sub) was read more than once before the write
	parityInside int // parity programs sitting between a read and the write it feeds
}

// checkLinks holds one plan's stamped links to the reference rule: Src of
// every op equals linkOps run on a copy, every non-zero Src names an
// earlier OpRead of the same (LSPN, Sub), and no parity write carries one.
func checkLinks(t *testing.T, what string, ops []Op, tally *linkTally) {
	t.Helper()
	ref := append([]Op(nil), ops...)
	linkOps(ref)
	type key struct {
		lspn int64
		sub  int
	}
	reads := make(map[key]int)
	for i, op := range ops {
		if op.Src != ref[i].Src {
			t.Fatalf("%s: op %d (%+v): Src %d, reference pass says %d", what, i, op, op.Src, ref[i].Src)
		}
		k := key{op.LSPN, op.Loc.Sub}
		if op.Kind == OpRead {
			reads[k]++
		}
		if op.Src == 0 {
			continue
		}
		if op.Kind != OpWrite || op.Parity {
			t.Fatalf("%s: op %d (%+v) is not a data write but carries Src %d", what, i, op, op.Src)
		}
		si := int(op.Src) - 1
		if si < 0 || si >= i {
			t.Fatalf("%s: op %d: Src %d does not name an earlier op", what, i, op.Src)
		}
		src := ops[si]
		if src.Kind != OpRead || src.LSPN != op.LSPN || src.Loc.Sub != op.Loc.Sub {
			t.Fatalf("%s: op %d (%+v): Src names op %d (%+v), not a read of the same sub-page", what, i, op, si, src)
		}
		tally.linked++
		if !op.GC {
			tally.hostLinked++
		}
		if reads[k] > 1 {
			tally.rereads++
		}
		for _, mid := range ops[si+1 : i] {
			if mid.Parity {
				tally.parityInside++
				break
			}
		}
	}
	tally.plans++
}

// linkGeometry is large enough for multi-victim GC plans (hundreds of ops)
// and has eight planes, so a RAIN stripe of 3+1 divides it.
func linkGeometry() nand.Geometry {
	return nand.Geometry{
		Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 4096,
	}
}

func linkConfig(mutate func(*Config)) Config {
	cfg := Config{
		Geometry: linkGeometry(), OPRatio: 0.1,
		PartialUpdate: true, SpareBlocks: 6,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// linkStream drives a fill plus n random overwrites through a fresh FTL,
// handing every plan to visit, which may stop the stream (leaving the FTL
// exactly as that Write left it). full writes whole super-pages; otherwise
// each write dirties a random non-empty subset of the subs. The LSPNs hole
// reports (when non-nil) are never written. The stream is a pure function
// of its arguments, so callers replay it to rebuild a state.
func linkStream(t *testing.T, cfg Config, full bool, n int, hole func(lspn int64) bool, visit func(now sim.Time, plan Plan) (stop bool)) (*FTL, sim.Time) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	rng := sim.NewRNG(41)
	user := uint64(f.UserSuperPages())
	subs := f.SubPagesPerSuperPage()
	stopped := false
	write := func(lspn int64, dirty []bool) {
		if hole != nil && hole(lspn) {
			return
		}
		now += sim.Microsecond
		plan, err := f.Write(now, lspn, dirty)
		if err != nil {
			t.Fatalf("write LSPN %d: %v", lspn, err)
		}
		stopped = visit != nil && visit(now, plan)
	}
	for lspn := int64(0); lspn < int64(user) && !stopped; lspn++ {
		write(lspn, nil)
	}
	for i := 0; i < n && !stopped; i++ {
		// Hot quarter, cold rest: skewed erase counts for wear-levelling.
		lspn := int64(rng.Uint64n(user/4 + 1))
		if rng.Uint64n(4) == 0 {
			lspn = int64(rng.Uint64n(user))
		}
		if full {
			write(lspn, nil)
			continue
		}
		dirty := make([]bool, subs)
		dirty[rng.Uint64n(uint64(subs))] = true
		for s := range dirty {
			if rng.Uint64n(3) == 0 {
				dirty[s] = true
			}
		}
		write(lspn, dirty)
	}
	return f, now
}

// linkModes are the stream shapes the mapping tests run over: every plan
// builder and both partial-write policies, with and without RAIN.
var linkModes = []struct {
	name   string
	full   bool
	mutate func(*Config)
	// The tally fields TestPlanLinksMatchReference must see non-zero.
	hostLinked, rereads, parityInside bool
}{
	{name: "full-line", full: true},
	{name: "partial-update", hostLinked: true},
	{name: "rmw", mutate: func(c *Config) { c.PartialUpdate = false }, hostLinked: true, rereads: true},
	{name: "wear-level", mutate: func(c *Config) { c.WearLevelDelta = 2 }, hostLinked: true},
	{name: "rain-partial", mutate: func(c *Config) { c.RAINWidth = 3 }, parityInside: true},
	{name: "rain-rmw", mutate: func(c *Config) { c.RAINWidth = 3; c.PartialUpdate = false }, hostLinked: true, parityInside: true},
}

// TestPlanLinksMatchReference is the proof that executors may drop their
// own (LSPN, Sub) → pre-read index: every plan the FTL certifies, from
// every builder, carries exactly the links the reference pass derives.
func TestPlanLinksMatchReference(t *testing.T) {
	for _, m := range linkModes {
		t.Run(m.name, func(t *testing.T) {
			var tally linkTally
			cfg := linkConfig(m.mutate)
			f, _ := linkStream(t, cfg, m.full, 1500, nil, func(_ sim.Time, plan Plan) bool {
				if plan.Cert.issuer == nil {
					t.Fatal("Write returned an uncertified plan")
				}
				checkLinks(t, m.name, plan.Ops, &tally)
				return false
			})
			st := f.Stats()
			if st.GCMigrated == 0 || tally.linked == 0 {
				t.Fatalf("stream never migrated (GCMigrated %d, linked writes %d): vacuous", st.GCMigrated, tally.linked)
			}
			if cfg.WearLevelDelta > 0 && st.WearLevelMoves == 0 {
				t.Fatal("wear-levelling never moved a sub-page")
			}
			if m.hostLinked && tally.hostLinked == 0 {
				t.Fatal("no host write was ever linked to a pre-read")
			}
			if m.rereads && tally.rereads == 0 {
				t.Fatal("no sub-page was read twice before its rewrite: 'last' is untested")
			}
			if m.parityInside && tally.parityInside == 0 {
				t.Fatal("no parity program ever sat between a read and its rewrite")
			}
		})
	}

	t.Run("scrub", func(t *testing.T) {
		var tally linkTally
		f, now := linkStream(t, linkConfig(nil), false, 600, nil, nil)
		scrubbed := 0
		for sb := 0; sb < f.sbCount && scrubbed < 3; sb++ {
			if !f.Scrubbable(sb) || f.ValidSubs(sb) == 0 {
				continue
			}
			plan, moved, err := f.PlanScrub(now, sb)
			if err != nil {
				t.Fatal(err)
			}
			if moved > 0 {
				scrubbed++
			}
			checkLinks(t, "scrub", plan.Ops, &tally)
		}
		if scrubbed == 0 || tally.linked == 0 {
			t.Fatal("no scrub plan migrated anything")
		}
	})

	t.Run("mount-squeeze", func(t *testing.T) {
		var tally linkTally
		f, now := linkStream(t, linkConfig(nil), false, 600, nil, nil)
		if free := len(f.freeSB); free > gcFreeThreshold {
			t.Fatalf("stream ended with %d free super-blocks; squeeze has nothing to do", free)
		}
		plan, blocks, subs, err := f.MountSqueeze(now)
		if err != nil {
			t.Fatal(err)
		}
		if blocks == 0 || subs == 0 || !plan.Cert.By(f) {
			t.Fatalf("squeeze compacted %d blocks / %d subs (certified %v): vacuous", blocks, subs, plan.Cert.By(f))
		}
		checkLinks(t, "mount-squeeze", plan.Ops, &tally)
		if tally.linked != subs {
			t.Fatalf("squeeze rewrote %d subs but %d writes are linked", subs, tally.linked)
		}
	})

	t.Run("reconstruct", func(t *testing.T) {
		var tally linkTally
		cfg := linkConfig(func(c *Config) { c.RAINWidth = 3 })
		f, now := linkStream(t, cfg, false, 600, nil, nil)
		done := 0
		for lspn := int64(0); lspn < f.UserSuperPages() && done < 8; lspn++ {
			for sub := 0; sub < f.SubPagesPerSuperPage() && done < 8; sub++ {
				loc, ok := f.LookupSub(lspn, sub)
				if !ok {
					continue
				}
				peers, parity, ok := f.StripePeers(loc, nil)
				if !ok {
					continue
				}
				plan, err := f.PlanReconstruct(now, lspn, sub, append(peers, parity))
				if err != nil {
					t.Fatal(err)
				}
				checkLinks(t, "reconstruct", plan.Ops, &tally)
				done++
			}
		}
		if done == 0 {
			t.Fatal("no reconstruction plan built")
		}
	})

	// Recovery copies ops out of the faulted plan; their Src are indices
	// into THAT plan and must never survive into the recovery plan.
	for _, fc := range []struct {
		name  string
		kind  OpKind
		cause error
	}{
		{"recover-program", OpWrite, nand.ErrProgramFail},
		{"recover-erase", OpErase, nand.ErrEraseFail},
		{"recover-read", OpRead, nand.ErrUncorrectable},
	} {
		t.Run(fc.name, func(t *testing.T) {
			var tally linkTally
			recovered := 0
			// The stream's largest plan, found once and faulted early, in
			// the middle and late, each time on a freshly replayed FTL.
			best := 0
			linkStream(t, linkConfig(nil), false, 400, nil, func(_ sim.Time, plan Plan) bool {
				best = max(best, len(plan.Ops))
				return false
			})
			for _, frac := range []int{0, 1, 2} {
				var mega Plan
				ftlAt, at := linkStream(t, linkConfig(nil), false, 400, nil, func(_ sim.Time, plan Plan) bool {
					mega = plan
					return len(plan.Ops) == best
				})
				if len(mega.Ops) != best || best < 64 {
					t.Fatalf("largest plan has %d ops: not a mega-plan", len(mega.Ops))
				}
				var sites []int
				for i, op := range mega.Ops {
					if op.Kind == fc.kind && !op.Parity && i > 0 {
						sites = append(sites, i)
					}
				}
				if len(sites) == 0 {
					t.Fatalf("mega-plan has no op of kind %d to fault", fc.kind)
				}
				executed := sites[(len(sites)-1)*frac/2]
				rplan, err := ftlAt.RecoverPlanFault(at, mega, executed, fc.cause)
				if err != nil {
					t.Fatalf("recover at op %d of %d: %v", executed, len(mega.Ops), err)
				}
				if rplan.Cert.By(ftlAt) {
					t.Fatal("recovery plan is certified")
				}
				checkLinks(t, fc.name, rplan.Ops, &tally)
				recovered++
			}
			if recovered == 0 || tally.linked == 0 {
				t.Fatalf("%d recovery plans, %d linked writes: vacuous", recovered, tally.linked)
			}
		})
	}
}

// TestLookupSubsMatchesFullLookup holds the sub-indexed lookup to the two
// things it replaces: for any request it returns what the all-subs lookup
// returns, filtered to the request and in the request's order, under an
// equal certificate — and each location is the one the single-sub LookupSub
// (its own code) reports, unmapped subs left out. The map it reads was built
// by every plan builder around never-written LSPNs, some of which a partial
// write then maps.
func TestLookupSubsMatchesFullLookup(t *testing.T) {
	for _, m := range linkModes {
		t.Run(m.name, func(t *testing.T) {
			f, now := linkStream(t, linkConfig(m.mutate), m.full, 600, func(lspn int64) bool { return lspn%5 == 0 }, nil)
			rng := sim.NewRNG(17)
			user, subCount := f.UserSuperPages(), f.SubPagesPerSuperPage()
			for lspn := int64(0); lspn < user; lspn += 5 {
				if lspn%2 == 0 {
					continue // stays wholly unmapped
				}
				dirty := make([]bool, subCount)
				for s := range dirty {
					dirty[s] = rng.Uint64n(2) == 0
				}
				dirty[0], dirty[subCount-1] = true, false
				now += sim.Microsecond
				if _, err := f.Write(now, lspn, dirty); err != nil {
					t.Fatal(err)
				}
			}
			epoch := uint64(40)
			f.SetEpochSource(func() uint64 { return epoch })

			var dst, full []PageLoc
			subs := make([]int, 0, subCount)
			unmapped, reversed := 0, 0
			for i := 0; i < 4000; i++ {
				lspn := int64(rng.Uint64n(uint64(user)))
				subs = subs[:0]
				switch kind := rng.Uint64n(8); kind {
				case 0: // empty
				case 1:
					subs = append(subs, int(rng.Uint64n(uint64(subCount))))
				default:
					for s := 0; s < subCount; s++ {
						if kind == 2 || rng.Uint64n(2) == 0 {
							subs = append(subs, s)
						}
					}
					if kind == 3 { // "in the order given" is not "ascending"
						slices.Reverse(subs)
						reversed++
					}
				}
				epoch += rng.Uint64n(2)

				var want []PageLoc
				for _, sub := range subs {
					if loc, ok := f.LookupSub(lspn, sub); ok {
						want = append(want, loc)
					} else {
						unmapped++
					}
				}
				var fullCert ReadCert
				var err error
				if full, fullCert, err = f.LookupCertified(full[:0], lspn); err != nil {
					t.Fatal(err)
				}
				var filtered []PageLoc
				for _, sub := range subs {
					for _, loc := range full {
						if loc.Sub == sub {
							filtered = append(filtered, loc)
						}
					}
				}
				var cert ReadCert
				if dst, cert, err = f.LookupSubs(dst[:0], lspn, subs); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(dst, want) || !slices.Equal(dst, filtered) {
					t.Fatalf("LSPN %d subs %v: got %v, LookupSub says %v, the full lookup filtered %v", lspn, subs, dst, want, filtered)
				}
				if cert != fullCert || !cert.By(f) || cert.Epoch() != epoch {
					t.Fatalf("LSPN %d: certificate %+v, the full lookup's %+v, epoch %d", lspn, cert, fullCert, epoch)
				}
			}
			if unmapped == 0 || reversed == 0 {
				t.Fatalf("%d unmapped subs asked for, %d reversed requests: vacuous", unmapped, reversed)
			}

			// Out of range: an error, no certificate, nothing appended.
			kept := append(dst[:0], PageLoc{SB: 1, Page: 2, Plane: 3, Sub: 4})
			for _, bad := range []struct {
				lspn int64
				subs []int
			}{
				{-1, []int{0}}, {user, []int{0}}, {0, []int{0, subCount}}, {0, []int{1, -1}}, {1, []int{0, 1, subCount + 7}},
			} {
				got, cert, err := f.LookupSubs(kept, bad.lspn, bad.subs)
				if err == nil || cert != (ReadCert{}) || len(got) != 1 || got[0] != kept[0] {
					t.Fatalf("LookupSubs(LSPN %d, subs %v) = %v, cert %+v, err %v", bad.lspn, bad.subs, got, cert, err)
				}
			}

			all := make([]int, subCount)
			for s := range all {
				all[s] = s
			}
			if allocs := testing.AllocsPerRun(200, func() {
				dst, _, _ = f.LookupSubs(dst[:0], 1, all)
			}); allocs != 0 {
				t.Fatalf("LookupSubs into a recycled buffer allocates %.1f objects", allocs)
			}
		})
	}
}
