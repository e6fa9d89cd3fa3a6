// Command bench is the repository's host-speed benchmark: seven workloads
// on the simulator's public API, each run untraced on fresh systems for the
// end-to-end metrics and once more as a traced replay for the per-layer
// ones. README.md holds the method; BENCHMARK.json at the repository root
// holds the contract a regression driver runs it under.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [flags]            every workload, tables + bench/out/result.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                     one workload, last stdout line is the driver's JSON
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

type options struct {
	workloads  string
	seed       uint64
	seconds    float64
	reps       int
	scale      float64
	trace      int
	cpuProfile string
	out        string
}

// metricValue is one reported metric with the interval its repetitions put
// around it: a median with its quartiles, host_ns_per_req with the sum of
// each segment's second-fastest repetition as Hi, or a single exact value
// (then all three agree). Samples are the per-repetition values.
type metricValue struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Samples []float64 `json:"samples,omitempty"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Requests  int                    `json:"requests_per_rep"`
	Reps      int                    `json:"reps"`
	SimDigest string                 `json:"sim_digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type hardware struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
}

type result struct {
	Hardware  hardware         `json:"hardware"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Reps      int              `json:"reps"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workload names (default: all)")
	fs.StringVar(&o.workloads, "workload", "", "same as -workloads")
	fs.Uint64Var(&o.seed, "seed", 11, "seed of the workload generators")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed seconds per run the request counts are sized for")
	fs.IntVar(&o.reps, "reps", 8, "untraced repetitions, each on a fresh system")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies every request count")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: one repetition plus the traced replay; default both")
	noTrace := fs.Bool("notrace", false, "same as -trace 0")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "directory for one CPU profile per workload (untraced repetitions)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	fs.Parse(os.Args[1:])
	if *noTrace {
		o.trace = 0
	}
	res, err := runAll(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if len(res.Workloads) == 1 && o.trace >= 0 {
		printDriverLine(res.Workloads[0], o.trace)
	}
	for _, w := range res.Workloads {
		if !w.Correct {
			os.Exit(1)
		}
	}
}

func selectWorkloads(list string) ([]*workloadDef, error) {
	if list == "" {
		return workloads, nil
	}
	var out []*workloadDef
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func runAll(o options) (*result, error) {
	if o.reps < 1 || o.seconds <= 0 || o.scale <= 0 {
		return nil, errors.New("-reps, -seconds and -scale must be positive")
	}
	sel, err := selectWorkloads(o.workloads)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{Hardware: hardwareLine(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Reps: o.reps}
	hw := res.Hardware
	fmt.Printf("hardware: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", hw.NumCPU, hw.GoMaxProcs, hw.GoVersion, hw.CPUModel)
	fmt.Printf("method: closed loop, one goroutine; seed=%d seconds=%g reps=%d scale=%g\n", o.seed, o.seconds, o.reps, o.scale)
	for _, w := range sel {
		wr, err := runWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printWorkload(wr)
		res.Workloads = append(res.Workloads, *wr)
	}
	path := filepath.Join(o.out, "result.json")
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	return res, nil
}

// runWorkload runs one workload's untraced repetitions and, when asked and
// available, its traced replay.
func runWorkload(w *workloadDef, o options) (*workloadResult, error) {
	reps := o.reps
	if o.trace == 1 {
		// The replay needs the work counts and the host time it explains,
		// as many looks at them as it takes itself; the end-to-end metrics
		// are trace 0's job.
		reps = min(reps, replayPasses)
	}
	p := w.sizing(o.seconds, o.reps, o.scale, o.seed)
	if o.cpuProfile != "" {
		stop, err := startProfile(o.cpuProfile, w.name)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	var runs []*rep
	for i := 0; i < reps; i++ {
		r, err := w.run(w, p)
		if err != nil {
			return nil, err
		}
		if i < reps-1 {
			r.sys = nil // only the last repetition's system is read again
		}
		runs = append(runs, r)
	}
	last := runs[len(runs)-1]
	wr := &workloadResult{Name: w.name, Requests: last.reqs, Reps: reps, SimDigest: last.digest, Correct: true}
	sample := func(f func(*rep) float64) []float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = f(r)
		}
		return vs
	}
	for _, r := range runs {
		wr.Attempted += r.reqs
		wr.Failed += r.failed
		if r.digest != last.digest {
			fmt.Fprintf(os.Stderr, "bench: %s: sim_digest differs between repetitions (%s vs %s): the simulation is not deterministic\n", w.name, r.digest, last.digest)
			wr.Correct = false
		}
	}
	if wr.Failed > 0 {
		wr.Correct = false
	}
	hostNs, err := quietHostNs(runs)
	if err != nil {
		return nil, err
	}
	if o.trace != 1 {
		wr.EndToEnd = map[string]metricValue{
			"setup_s":         summarize("s", sample(func(r *rep) float64 { return r.setupS })),
			"host_ns_per_req": hostNs,
			"heap_sys_mb":     summarize("MB", sample(func(r *rep) float64 { return r.heapSysMB })),
		}
	}
	if o.trace == 0 {
		return wr, nil
	}

	cfg := last.sys.Config()
	layer := workMetrics(last.delta, cfg.Device.CPU.Cores, cfg.Host.CPUs)
	_, layer["core.sim_s_per_wall_s"], _ = quartiles(sample(func(r *rep) float64 {
		return ratio(float64(r.delta.n[cSimTime])/1e3, r.wallNs) // ps / ns
	}))
	_, layer["core.allocs_per_req"], _ = quartiles(sample(func(r *rep) float64 { return float64(r.mallocs) / float64(r.reqs) }))
	_, layer["core.alloc_bytes_per_req"], _ = quartiles(sample(func(r *rep) float64 { return float64(r.allocBytes) / float64(r.reqs) }))
	layer["core.sim_lat_p50_us"], layer["core.sim_lat_p99_us"], layer["core.sim_lat_p999_us"] = last.latP50, last.latP99, last.latP999
	layer["refdata.model_accuracy_pct"] = last.accuracy
	if w.traced {
		rm, ok, err := replay(w, p, last, hostNs.Value, o.out)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for k, v := range rm {
			layer[k] = v
		}
		if !ok {
			wr.Correct = false
		}
	}
	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		v := layer[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		wr.PerLayer[d.Name] = metricValue{Unit: d.Unit, Value: v, Lo: v, Hi: v}
	}
	return wr, nil
}

func summarize(unit string, vs []float64) metricValue {
	q1, med, q3 := quartiles(vs)
	return metricValue{Unit: unit, Value: med, Lo: q1, Hi: q3, Samples: vs}
}

// quietHostNs is host_ns_per_req. The sandboxes this runs on share their
// cores: the same work takes 25 % longer for seconds at a time, then does
// not, and the repetitions land on different sides of that.
// Interference only ever adds time, and every repetition does identical work
// in its j-th segment (same seed, fresh system, checked by sim_digest), so
// each segment is taken at its fastest repetition and the segments summed:
// the time the run takes when nothing else wants the machine. Hi sums the
// second-fastest instead; the two agree when every segment saw a quiet
// machine twice.
func quietHostNs(runs []*rep) (metricValue, error) {
	m := metricValue{Unit: "ns"}
	reqs := float64(runs[0].reqs)
	for _, r := range runs {
		if len(r.segNs) != len(runs[0].segNs) || r.reqs != runs[0].reqs {
			return m, errors.New("repetitions cut their timed sections differently: the request stream is not deterministic")
		}
		m.Samples = append(m.Samples, r.wallNs/reqs)
	}
	col := make([]float64, len(runs))
	for j := range runs[0].segNs {
		for i, r := range runs {
			col[i] = r.segNs[j]
		}
		sort.Float64s(col)
		m.Value += col[0]
		m.Hi += col[min(1, len(col)-1)]
	}
	m.Value /= reqs
	m.Hi /= reqs
	m.Lo = m.Value
	return m, nil
}

func startProfile(dir, name string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
		}
	}, nil
}

// hardwareLine describes the machine; the CPU model is best effort (Linux).
func hardwareLine() hardware {
	hw := hardware{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				hw.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return hw
}

func printWorkload(w *workloadResult) {
	fmt.Printf("\n== %s: %d req/rep x %d reps, attempted %d, failed %d, sim_digest %s ==\n",
		w.Name, w.Requests, w.Reps, w.Attempted, w.Failed, w.SimDigest)
	for _, d := range endToEnd {
		if m, ok := w.EndToEnd[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-5s [%.4f, %.4f] n=%d\n", d.Name, m.Value, m.Unit, m.Lo, m.Hi, len(m.Samples))
		}
	}
	for _, d := range perLayer {
		if m, ok := w.PerLayer[d.Name]; ok {
			note := ""
			if d.Name == "refdata.model_accuracy_pct" && m.Value > 0 {
				note = "  (against internal/refdata's digitised curves only)"
			}
			fmt.Printf("  %-34s %14.4f %s%s\n", d.Name, m.Value, m.Unit, note)
		}
	}
}

// printDriverLine prints the one-line JSON object a regression driver reads
// from the last line of standard output.
func printDriverLine(w workloadResult, trace int) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := w.EndToEnd
	if trace == 1 {
		src = w.PerLayer
	}
	metrics := map[string]mv{}
	for k, m := range src {
		metrics[k] = mv{m.Value, m.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(buf))
}
