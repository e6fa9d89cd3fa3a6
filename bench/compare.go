package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: the regression
// bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain implements "bench compare A.json B.json": A is the base, B the
// candidate. It exits 1 when an end-to-end metric is worse than its bound
// allows or the simulated outcome changed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	allowModel := fs.Bool("allow-model-change", false, "do not fail when sim_digest differs")
	contract := fs.String("benchmark", "BENCHMARK.json", "file holding the regression bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-allow-model-change] [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bf benchmarkFile
	var a, b result
	for _, in := range []struct {
		path string
		v    any
	}{{*contract, &bf}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	fmt.Printf("base      %s: %s, nproc %d, seed %d, seconds %g, scale %g\n", fs.Arg(0), a.Hardware.CPUModel, a.Hardware.NumCPU, a.Seed, a.Seconds, a.Scale)
	fmt.Printf("candidate %s: %s, nproc %d, seed %d, seconds %g, scale %g\n", fs.Arg(1), b.Hardware.CPUModel, b.Hardware.NumCPU, b.Seed, b.Seconds, b.Scale)
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale {
		fmt.Println("NOTE: the two runs used different settings; digests and counts are expected to differ")
	}

	worse, modelChanged := 0, 0
	for _, wb := range b.Workloads {
		var wa *workloadResult
		for i := range a.Workloads {
			if a.Workloads[i].Name == wb.Name {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil {
			fmt.Printf("\n== %s: only in candidate ==\n", wb.Name)
			continue
		}
		fmt.Printf("\n== %s ==\n", wb.Name)
		if wa.SimDigest != wb.SimDigest {
			fmt.Printf("  MODEL CHANGED: sim_digest %s -> %s (simulated results differ; this is not a pure speed change)\n", wa.SimDigest, wb.SimDigest)
			modelChanged++
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("  worse       failed requests %d -> %d\n", wa.Failed, wb.Failed)
			worse++
		}
		for _, e := range bf.EndToEnd {
			ma, oka := wa.EndToEnd[e.Name]
			mb, okb := wb.EndToEnd[e.Name]
			if !oka || !okb {
				continue
			}
			v := verdict(ma, mb, e.Better == "higher", e.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("  %-11s %-18s %12.4f [%.4f, %.4f] -> %12.4f [%.4f, %.4f] %-3s  x%.3f of base %.4f, bound %.0f%%\n",
				v, e.Name, ma.Value, ma.Lo, ma.Hi, mb.Value, mb.Lo, mb.Hi, ma.Unit, ratio(mb.Value, ma.Value), ma.Value, 100*e.Bound)
		}
		comparePerLayer(wa.PerLayer, wb.PerLayer)
	}
	switch {
	case worse > 0:
		fmt.Printf("\n%d metric(s) worse than the bound allows\n", worse)
		return 1
	case modelChanged > 0 && !*allowModel:
		fmt.Printf("\n%d workload(s) changed the simulated outcome (-allow-model-change to accept)\n", modelChanged)
		return 1
	}
	return 0
}

// verdict judges candidate b against base a: "worse" when b's value is
// worse by more than bound; "unresolved" when either side's [Lo, Hi]
// interval is wider than the bound, unless b's whole interval is better
// than a's; "ok" otherwise.
func verdict(a, b metricValue, higherBetter bool, bound float64) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	spread := func(m metricValue) float64 { return ratio(m.Hi-m.Lo, m.Value) }
	if spread(a) > bound || spread(b) > bound {
		if (!higherBetter && b.Hi < a.Lo) || (higherBetter && b.Lo > a.Hi) {
			return "ok"
		}
		return "unresolved"
	}
	if sign*(b.Value-a.Value) > bound*a.Value {
		return "worse"
	}
	return "ok"
}

// comparePerLayer lists the per-layer metrics that moved by more than 1 %;
// they carry no bound, so they explain a verdict and never make one.
func comparePerLayer(a, b map[string]metricValue) {
	names := make([]string, 0, len(b))
	for k := range b {
		if _, ok := a[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	same := 0
	for _, k := range names {
		va, vb := a[k].Value, b[k].Value
		d := vb - va
		if d < 0 {
			d = -d
		}
		base := va
		if base < 0 {
			base = -base
		}
		if d <= 0.01*base {
			same++
			continue
		}
		fmt.Printf("  layer       %-34s %14.4f -> %14.4f %-5s x%.3f of base\n", k, va, vb, a[k].Unit, ratio(vb, va))
	}
	if len(names) > 0 {
		fmt.Printf("  %d of %d per-layer metrics within 1 %%\n", same, len(names))
	}
}
