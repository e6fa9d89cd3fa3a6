package cpu

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// refExecute and refExecuteAny are the per-call accounting compiled charges
// are held equal to: duration, categorical sums and energy re-derived from
// the mix on every call. They exist only here.
func refExecute(c *Complex, now sim.Time, core int, module string, mix InstrMix) (start, end sim.Time) {
	if core < 0 || core >= c.cfg.Cores {
		core = 0
	}
	start, end = c.cores.ClaimServer(core, now, c.ExecTime(mix))
	refAccount(c, module, mix)
	return start, end
}

func refExecuteAny(c *Complex, now sim.Time, module string, mix InstrMix) (start, end sim.Time) {
	start, end, _ = c.cores.Claim(now, c.ExecTime(mix))
	refAccount(c, module, mix)
	return start, end
}

func refAccount(c *Complex, module string, mix InstrMix) {
	c.total = c.total.Add(mix)
	slot := -1
	for i := range c.perModule {
		if c.perModule[i].name == module {
			slot = i
		}
	}
	if slot < 0 {
		slot = len(c.perModule)
		c.perModule = append(c.perModule, moduleMix{name: module})
	}
	c.perModule[slot].mix = c.perModule[slot].mix.Add(mix)
	c.energyJ += c.pow.EnergyPerInstrJ * float64(mix.Total())
}

func image(c *Complex) []byte {
	var e snap.Enc
	c.EncodeState(&e)
	return e.Bytes()
}

// sameComplex compares everything a Complex reports, and its image.
func sameComplex(t *testing.T, step int, got, want *Complex) {
	t.Helper()
	if got.Instructions() != want.Instructions() {
		t.Fatalf("step %d: Instructions %+v, reference %+v", step, got.Instructions(), want.Instructions())
	}
	gm, wm := got.Modules(), want.Modules()
	if fmt.Sprint(gm) != fmt.Sprint(wm) {
		t.Fatalf("step %d: Modules %v, reference %v", step, gm, wm)
	}
	for _, m := range wm {
		if got.ModuleInstructions(m) != want.ModuleInstructions(m) {
			t.Fatalf("step %d: module %q %+v, reference %+v", step, m,
				got.ModuleInstructions(m), want.ModuleInstructions(m))
		}
	}
	if g, w := math.Float64bits(got.EnergyJoules()), math.Float64bits(want.EnergyJoules()); g != w {
		t.Fatalf("step %d: energy bits %#x (%g J), reference %#x (%g J)",
			step, g, got.EnergyJoules(), w, want.EnergyJoules())
	}
	if got.BusyTime() != want.BusyTime() {
		t.Fatalf("step %d: BusyTime %d, reference %d", step, got.BusyTime(), want.BusyTime())
	}
	if !bytes.Equal(image(got), image(want)) {
		t.Fatalf("step %d: state images differ", step)
	}
}

// TestChargeMatchesExecuteReference drives one Complex through Run, RunAny,
// Execute and ExecuteAny interleaved and its twin through the per-call
// reference: random modules (registered in an order that is not the sorted
// one), mixes that are zero, irregular, Scaled or firmware-shaped, cores in
// and out of range, arrival times that leave cores idle or backlogged. Every
// so often the state goes through EncodeState and DecodeState — into the
// Complex itself, leaving every compiled charge holding the slot its module
// had before the table was re-sorted, or into a fresh Complex whose charges
// were compiled before the decode, as core.Restore does. Service intervals
// must agree call by call; counters, energy bits, busy time and the image
// after every call.
func TestChargeMatchesExecuteReference(t *testing.T) {
	for _, cfg := range []Config{
		{Cores: 3, FrequencyMHz: 500, IPC: 1.0},
		{Cores: 1, FrequencyMHz: 400, IPC: 0.7},
		{Cores: 4, FrequencyMHz: 4400, IPC: 2.0},
		{Cores: 4, FrequencyMHz: 2000, IPC: 1.2},
	} {
		t.Run(fmt.Sprintf("%dx%gMHz", cfg.Cores, cfg.FrequencyMHz), func(t *testing.T) {
			pow := Power{EnergyPerInstrJ: 1.1e-9, LeakageWPerCore: 0.12}
			build := func() *Complex {
				c, err := New(cfg, pow)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			rng := sim.NewRNG(uint64(cfg.Cores)*977 + 5)
			names := []string{"kernel.submit", "hil", "icl", "zeta", "ftl", "fil", "hil.complete", "alpha", "ftl.gc", "kernel.isr"}
			randMix := func() InstrMix {
				switch rng.Intn(5) {
				case 0:
					return InstrMix{}
				case 1:
					return Mix(uint64(rng.Intn(60000)))
				case 2:
					return MixFILSchedule.Scale(uint64(rng.Intn(300)))
				case 3:
					return MixDoorbell.Add(MixHILParseNVMe)
				default:
					return InstrMix{
						Branch: uint64(rng.Intn(1000)), Load: uint64(rng.Intn(1000)),
						Store: uint64(rng.Intn(1000)), Arith: uint64(rng.Intn(1000)),
						FP: uint64(rng.Intn(10)), Other: uint64(rng.Intn(1e6)),
					}
				}
			}

			got, ref := build(), build()
			type compiled struct {
				module string
				mix    InstrMix
				ch     Charge
			}
			var pool []compiled
			compile := func(module string, mix InstrMix) {
				pool = append(pool, compiled{module, mix, got.Compile(module, mix)})
			}
			for i := 0; i < 6; i++ {
				compile(names[rng.Intn(len(names))], randMix())
			}
			// The same module under two mixes, and one mix under two modules.
			compile("icl", MixICLLookup)
			compile("icl", MixICLInsert)
			compile("ftl", MixICLInsert)

			var now sim.Time
			for step := 0; step < 6000; step++ {
				now += sim.Time(rng.Intn(3000))
				core := rng.Intn(cfg.Cores+3) - 1
				var gs, ge, ws, we sim.Time
				switch rng.Intn(5) {
				case 0:
					k := &pool[rng.Intn(len(pool))]
					gs, ge = got.Run(now, core, &k.ch)
					ws, we = refExecute(ref, now, core, k.module, k.mix)
				case 1:
					k := &pool[rng.Intn(len(pool))]
					gs, ge = got.RunAny(now, &k.ch)
					ws, we = refExecuteAny(ref, now, k.module, k.mix)
				case 2:
					module, mix := names[rng.Intn(len(names))], randMix()
					gs, ge = got.Execute(now, core, module, mix)
					ws, we = refExecute(ref, now, core, module, mix)
				case 3:
					module, mix := names[rng.Intn(len(names))], randMix()
					gs, ge = got.ExecuteAny(now, module, mix)
					ws, we = refExecuteAny(ref, now, module, mix)
				default:
					if rng.Intn(40) != 0 {
						compile(names[rng.Intn(len(names))], randMix())
						continue
					}
					img := image(got)
					into := got
					if rng.Intn(2) == 0 {
						into = build()
						for i := range pool {
							pool[i].ch = into.Compile(pool[i].module, pool[i].mix)
						}
					}
					if err := into.DecodeState(snap.NewDec(img)); err != nil {
						t.Fatalf("step %d: decode: %v", step, err)
					}
					got = into
					continue
				}
				if gs != ws || ge != we {
					t.Fatalf("step %d: interval [%d, %d], reference [%d, %d]", step, gs, ge, ws, we)
				}
				sameComplex(t, step, got, ref)
			}
			if len(got.Modules()) != len(names) {
				t.Fatalf("stream charged %d of %d modules", len(got.Modules()), len(names))
			}

			// Every instruction total a firmware mix can have, once: durations
			// truncate to whole picoseconds, and a regrouped expression (total
			// times a precomputed seconds-per-instruction, say) lands one
			// picosecond off on a few totals in a hundred.
			for n := uint64(0); n < 40000; n++ {
				mix := InstrMix{Load: n / 3, Other: n - n/3}
				ch := got.Compile("sweep", mix)
				gs, ge := got.Run(now, 0, &ch)
				ws, we := refExecute(ref, now, 0, "sweep", mix)
				if gs != ws || ge != we {
					t.Fatalf("%d instructions: interval [%d, %d], reference [%d, %d]", n, gs, ge, ws, we)
				}
			}
			sameComplex(t, -1, got, ref)
		})
	}
}

// TestCompileRegistersNothing: a module appears in Modules — and so in the
// state image — when a charge of it first runs, not when it is compiled;
// core compiles its constant charges at construction, and a system that has
// served nothing must image as before.
func TestCompileRegistersNothing(t *testing.T) {
	c := newTestComplex(t)
	before := image(c)
	ch := c.Compile("icl", MixICLLookup)
	if len(c.Modules()) != 0 || !bytes.Equal(image(c), before) {
		t.Fatalf("Compile changed the complex: modules %v", c.Modules())
	}
	c.Run(0, 1, &ch)
	if m := c.Modules(); len(m) != 1 || m[0] != "icl" {
		t.Fatalf("modules after one run: %v", m)
	}
}

var benchSink sim.Time

// BenchmarkCharge sets a compiled charge's Run beside Execute by mix — the
// per-request constant charges against the count-scaled ones — on three
// modules in turn, as a request's charges interleave.
func BenchmarkCharge(b *testing.B) {
	mods := []string{"hil", "icl", "hil.complete"}
	mixes := []InstrMix{MixDoorbell.Add(MixHILParseNVMe), MixICLLookup, MixCompletion}
	b.Run("Run", func(b *testing.B) {
		c, _ := New(Config{Cores: 3, FrequencyMHz: 500, IPC: 1.0}, DefaultPower())
		var chs [3]Charge
		for i := range chs {
			chs[i] = c.Compile(mods[i], mixes[i])
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			_, benchSink = c.Run(sim.Time(i)*1000, i%3, &chs[i%3])
		}
	})
	b.Run("Execute", func(b *testing.B) {
		c, _ := New(Config{Cores: 3, FrequencyMHz: 500, IPC: 1.0}, DefaultPower())
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			_, benchSink = c.Execute(sim.Time(i)*1000, i%3, mods[i%3], mixes[i%3])
		}
	})
}
