package fil

import (
	"bytes"
	"testing"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// TestPlanReadBufferLifeCycle drives the pre-read buffers' whole life cycle
// against a shadow copy of every logical byte: borrowed from the flash's
// staging pool at the read, handed to the rewrite the plan links to it (taken
// over by the program on the certified path, copied and returned on the two
// validating ones), fetched back from the first rewrite's page for a second
// one, and returned at the end of the plan when nothing consumed them.
//
// The stream is built to make a wrong life cycle show: read-modify-write
// plans issue all their pre-reads before the first rewrite, so a buffer
// released before its rewrite is refilled by a later read of the same plan;
// GC plans alternate read and rewrite, so a buffer released at the rewrite
// although the program made it the page is refilled by the next read; a GC
// cascade's plan needs several times the buffers the pool holds by then, so
// fresh and recycled buffers mix; and the super-pages first
// written without payload bytes store empty pages, which read as zeros — into
// a recycled buffer only if the read wrote every byte of it. (Checked by mutation:
// releasing in stageRead, skipping takeRead's hand-over, skipping copyOut's
// clear and skipping releaseReads each fail here.)
func TestPlanReadBufferLifeCycle(t *testing.T) {
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 2, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 256,
	}
	rmw := func(c *ftl.Config) { c.PartialUpdate = false }
	for _, m := range []struct {
		name     string
		mutate   func(*ftl.Config)
		walk     bool // force the validating walk (links derived, issues prechecked)
		deferred bool // ExecuteOn; otherwise the synchronous Execute
	}{
		{"certified", rmw, false, true},
		{"certified-partial-update", nil, false, true},
		{"walked", rmw, true, true},
		{"synchronous", rmw, false, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			f, tr, fl := armedStack(t, g, true, m.mutate)
			f.forceWalk = m.walk
			e := sim.NewEngine()
			doms := chDomsFor(t, e, fl)
			subs, ps := tr.SubPagesPerSuperPage(), g.PageSize
			user := tr.UserSuperPages()
			shadow := make([][]byte, user)
			now := sim.Time(0)
			maxReads := 0

			exec := func(plan ftl.Plan, hd PlanData) {
				t.Helper()
				reads := 0
				for i := range plan.Ops {
					if plan.Ops[i].Kind == ftl.OpRead {
						reads++
					}
				}
				maxReads = max(maxReads, reads)
				var res Result
				var err error
				if m.deferred {
					res, err = f.ExecuteOn(e, doms, now, plan, hd)
				} else {
					res, err = f.ExecuteOn(nil, nil, now, plan, hd)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, buf := range f.readBufs {
					if buf != nil || f.readBufN != 0 {
						t.Fatalf("pre-read buffer still parked in slot %d of %d after the plan", i, f.readBufN)
					}
				}
				now = res.Done + sim.Microsecond
			}
			check := func(when string, lspn int64) {
				t.Helper()
				got := make([]byte, ps)
				for sub := 0; sub < subs; sub++ {
					loc, ok := tr.LookupSub(lspn, sub)
					if !ok {
						t.Fatalf("%s: LSPN %d sub %d unmapped", when, lspn, sub)
					}
					fl.PagePayload(tr.Address(loc), got)
					if want := shadow[lspn][sub*ps : (sub+1)*ps]; !bytes.Equal(got, want) {
						t.Fatalf("%s: LSPN %d sub %d holds %x..., shadow copy says %x...", when, lspn, sub, got[:8], want[:8])
					}
				}
			}
			n := 0
			write := func(lspn int64, dirty []bool, withBytes bool) {
				t.Helper()
				n++
				if shadow[lspn] == nil {
					shadow[lspn] = make([]byte, subs*ps)
				}
				var payload []byte
				if withBytes {
					payload = make([]byte, subs*ps)
				}
				for sub := 0; sub < subs; sub++ {
					if !dirty[sub] {
						continue
					}
					dst := shadow[lspn][sub*ps : (sub+1)*ps]
					clear(dst) // a sub written without bytes stores a zero page
					if withBytes {
						for i := range dst {
							dst[i] = byte(n*13+sub*5+i) | 1
						}
						copy(payload[sub*ps:], dst)
					}
				}
				plan, err := tr.Write(now, lspn, dirty)
				if err != nil {
					t.Fatal(err)
				}
				exec(plan, HostData(lspn, dirty, payload, ps))
				check("after its own plan", lspn)
			}

			all := make([]bool, subs)
			for i := range all {
				all[i] = true
			}
			for lspn := int64(0); lspn < user; lspn++ {
				write(lspn, all, lspn%5 != 0) // every fifth super-page: no bytes
			}
			rng := sim.NewRNG(61)
			for i := 0; i < 500; i++ {
				dirty := make([]bool, subs)
				dirty[rng.Uint64n(uint64(subs))] = true
				for s := range dirty {
					if rng.Uint64n(3) == 0 {
						dirty[s] = true
					}
				}
				write(int64(rng.Uint64n(uint64(user))), dirty, true)
			}
			if tr.Stats().GCMigrated == 0 || (m.mutate != nil && tr.Stats().RMWReads == 0) {
				t.Fatalf("GCMigrated %d, RMWReads %d: the stream never exercised the rewrites", tr.Stats().GCMigrated, tr.Stats().RMWReads)
			}

			// Some GC cascade's plan pre-read more than sixteen super-pages'
			// worth, so fresh and recycled buffers mixed.
			if maxReads <= 16*subs {
				t.Fatalf("largest plan pre-read %d pages: none outgrew the staging pool", maxReads)
			}
			// Whole-block scrubs: no host data, every valid sub of a super-block
			// pre-read and rewritten, the empty pages of the first fill included.
			for sb, scrubbed := 0, 0; sb < g.BlocksPerPlane && scrubbed < 4; sb++ {
				if !tr.Scrubbable(sb) || tr.ValidSubs(sb) < subs*g.PagesPerBlock/2 {
					continue
				}
				plan, _, err := tr.PlanScrub(now, sb)
				if err != nil {
					t.Fatal(err)
				}
				exec(plan, PlanData{})
				scrubbed++
			}
			for lspn := int64(0); lspn < user; lspn++ {
				check("after the scrubs", lspn)
			}
			for sb := 0; sb < g.BlocksPerPlane; sb++ {
				for plane := 0; plane < g.TotalPlanes(); plane++ {
					for page := 0; page < g.PagesPerBlock; page++ {
						a := tr.Address(ftl.PageLoc{SB: sb, Page: page, Plane: plane, Sub: plane})
						if fl.PageWritten(a) && !fl.VerifyPage(a) {
							t.Fatalf("written page %v fails VerifyPage", a)
						}
					}
				}
			}
		})
	}
}
