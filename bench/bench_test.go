package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contractFile is BENCHMARK.json as the smoke test reads it.
type contractFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func smokeRun(t *testing.T) (res *result, outDir string) {
	t.Helper()
	outDir = t.TempDir()
	res, err := runAll(options{seed: 11, seconds: 12, reps: 1, scale: 0.01, trace: -1, out: outDir})
	if err != nil {
		t.Fatal(err)
	}
	return res, outDir
}

// TestSmoke runs every workload twice at a hundredth of its size and checks
// what BENCHMARK.json promises: every workload and metric it names is
// emitted, finite, with its unit; the simulated outcome and the work counts
// repeat exactly; payloads read back intact; the replay's ftl-fil-nand chain
// stays certified.
func TestSmoke(t *testing.T) {
	var c contractFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
			if !nameOK.MatchString(want[i].Name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", want[i].Name)
			}
		}
	}
	sameDefs("end_to_end", c.EndToEnd, endToEnd)
	sameDefs("per_layer", c.PerLayer, perLayer)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || !nameOK.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}

	first, outDir := smokeRun(t)
	second, _ := smokeRun(t)
	// Host-time metrics differ between runs by nature; everything else is a
	// count or a simulated quantity and must repeat exactly.
	timed := regexp.MustCompile(`host_ns|_ns_per_|sim_s_per_wall_s|replay_coverage|trace_overhead|allocs_per_req|alloc_bytes_per_req`)
	for i, w := range first.Workloads {
		w2 := second.Workloads[i]
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.Name, w.Correct, w.Failed)
		}
		if w.SimDigest == "" || w.SimDigest != w2.SimDigest {
			t.Errorf("%s: sim_digest %q then %q", w.Name, w.SimDigest, w2.SimDigest)
		}
		check := func(defs []metricDef, got map[string]metricValue) {
			for _, d := range defs {
				m, ok := got[d.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", w.Name, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: metric %s = %v %q, want a finite value in %q", w.Name, d.Name, m.Value, m.Unit, d.Unit)
				}
			}
		}
		check(endToEnd, w.EndToEnd)
		check(perLayer, w.PerLayer)
		for _, d := range endToEnd {
			if w.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, d.Name, w.EndToEnd[d.Name].Value)
			}
		}
		for _, d := range perLayer {
			if a, b := w.PerLayer[d.Name].Value, w2.PerLayer[d.Name].Value; !timed.MatchString(d.Name) && a != b {
				t.Errorf("%s: %s is %v in one run and %v in the next", w.Name, d.Name, a, b)
			}
		}
		if n := w.PerLayer["fil.cert_disarms"].Value; n != 0 {
			t.Errorf("%s: fil.cert_disarms = %v", w.Name, n)
		}
		if workloads[i].traced {
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if w.PerLayer["core.replay_coverage"].Value <= 0 {
				t.Errorf("%s: the replay explained nothing", w.Name)
			}
		}
	}
	if v := first.Workloads[len(first.Workloads)-1].PerLayer["refdata.model_accuracy_pct"].Value; v <= 0 || v > 100 {
		t.Errorf("validate_sweep: model accuracy %v %%", v)
	}
	for _, w := range first.Workloads {
		// Every request of this workload is inline and serial, as the replay is.
		if v := w.PerLayer["core.replay_count_skew"].Value; w.Name == "batch_randwrite4k" && v != 0 {
			t.Errorf("%s: replay_count_skew %v on a serial workload", w.Name, v)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || med != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v %v %v, want 7.5 15 22.5", q1, med, q3)
	}
}

// TestVerdict covers compare's three verdicts.
func TestVerdict(t *testing.T) {
	m := func(vs ...float64) metricValue { return summarize("ns", vs) }
	base := m(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		b    metricValue
		want string
	}{
		{"same", m(101, 100, 100, 99, 102), "ok"},
		{"slower", m(115, 116, 114, 115, 115), "worse"},
		{"noisy", m(80, 130, 100, 95, 140), "unresolved"},
		{"noisy but all faster", m(50, 70, 60, 40, 80), "ok"},
	} {
		if got := verdict(base, c.b, false, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
