package amber_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/host"
	"amber/internal/nand"
	"amber/internal/proto"
	"amber/internal/sim"
	"amber/internal/workload"
)

// knobRun is one closed-loop run of a scenario.
type knobRun struct {
	pattern   workload.Pattern
	blockSize int
	requests  int
	depth     int
}

// knobScenario is a short workload on config.SmallTestDevice behind the PC
// platform: setup changes that configuration before the leaf under test is
// perturbed, and the runs are issued in order on one system.
type knobScenario struct {
	setup func(*core.SystemConfig)
	runs  []knobRun
}

var knobScenarios = map[string]knobScenario{
	// base overwrites the volume randomly until GC and partial updates
	// run, reads it back sequentially (readahead) and randomly, then
	// moves 64 KiB requests (multi-entry pointer lists).
	"base": {runs: []knobRun{
		{workload.RandWrite, 4096, 1200, 8},
		{workload.SeqRead, 4096, 300, 8},
		{workload.RandRead, 4096, 300, 8},
		{workload.SeqWrite, 64 << 10, 40, 8},
		{workload.RandRead, 64 << 10, 40, 8},
	}},
	// faults arms the heavy profile with a retry latency, read disturb and
	// retention, and lets wear saturate after two erases, so a short run
	// retires blocks, latches read-only and loses reads past the retry
	// ladder.
	"faults": {setup: func(c *core.SystemConfig) {
		c.Device.Faults, _ = config.FaultProfile("heavy", 5) // a preset name: no error
		c.Device.Faults.WearEraseLimit = 2
		c.Device.Faults.ReadRetryLatency = sim.FromMicroseconds(40)
		c.Device.Faults.ReadDisturbLimit = 2
		c.Device.Faults.RetentionLimit = sim.FromMicroseconds(5000)
	}, runs: []knobRun{
		{workload.RandWrite, 4096, 3000, 8},
		{workload.RandRead, 4096, 600, 8},
	}},
	// cache sizes the cache from a 1 MiB internal DRAM (CacheLines 0), so
	// the random working set is several times the cache.
	"cache": {setup: func(c *core.SystemConfig) {
		c.Device.CacheLines = 0
		c.Device.DRAM.CapacityBytes = 1 << 20
	}, runs: []knobRun{
		{workload.RandWrite, 4096, 600, 8},
		{workload.RandRead, 4096, 600, 8},
	}},
}

// knob is one witnesses entry. A witness perturbs the leaf in scenario in
// (to, or by default doubled, 0 → 1 or a bool flipped) and must move the
// output. A neutral entry gives the reason the leaf moves nothing, and the
// test checks that it does not in the base scenario.
type knob struct {
	in      string
	to      any
	neutral string
}

// witnesses lists every numeric and bool leaf of core.SystemConfig, keyed
// by its field path.
var witnesses = map[string]knob{
	"Device.Geometry.Channels":           {in: "base"},
	"Device.Geometry.PackagesPerChannel": {in: "base"},
	"Device.Geometry.DiesPerPackage":     {in: "base"},
	"Device.Geometry.PlanesPerDie":       {in: "base"},
	"Device.Geometry.BlocksPerPlane":     {in: "base"},
	"Device.Geometry.PagesPerBlock":      {in: "base"},
	"Device.Geometry.PageSize":           {in: "base"},

	// Doubling ReadFast would put it above ReadSlow.
	"Device.Flash.ReadFast":   {in: "base", to: sim.FromMicroseconds(90)},
	"Device.Flash.ReadSlow":   {in: "base"},
	"Device.Flash.ProgFast":   {in: "base"},
	"Device.Flash.ProgSlow":   {in: "base"},
	"Device.Flash.Erase":      {in: "base"},
	"Device.Flash.BusMTps":    {in: "base"},
	"Device.Flash.CmdCycles":  {in: "base"},
	"Device.Flash.ISPPJitter": {in: "base"},

	"Device.FlashPower.ReadEnergyJ":        {in: "base"},
	"Device.FlashPower.ProgEnergyJ":        {in: "base"},
	"Device.FlashPower.EraseEnergyJ":       {in: "base"},
	"Device.FlashPower.XferEnergyJPerByte": {in: "base"},
	"Device.FlashPower.LeakageWPerDie":     {in: "base"},

	"Device.Cell": {in: "base", to: nand.TLC},

	"Device.DRAM.CapacityBytes":   {in: "cache"},
	"Device.DRAM.Channels":        {in: "base"},
	"Device.DRAM.RanksPerChannel": {in: "base"},
	"Device.DRAM.BanksPerRank":    {in: "base"},
	"Device.DRAM.BusWidthBits":    {in: "base"},
	"Device.DRAM.ClockMHz":        {in: "base"},
	"Device.DRAM.BurstLength":     {in: "base"},
	"Device.DRAM.CL":              {in: "base"},
	"Device.DRAM.RCD":             {in: "base"},
	"Device.DRAM.RP":              {in: "base"},
	"Device.DRAM.RowBytes":        {in: "base"},

	"Device.DRAMPower.ActStandbyW":    {in: "base"},
	"Device.DRAMPower.PowerDownW":     {in: "base"},
	"Device.DRAMPower.ActEnergyJ":     {in: "base"},
	"Device.DRAMPower.RdBurstEnergyJ": {in: "base"},
	"Device.DRAMPower.WrBurstEnergyJ": {in: "base"},
	"Device.DRAMPower.RefreshEnergyJ": {in: "base"},
	"Device.DRAMPower.TREFI":          {in: "base"},

	// Firmware is pinned to cores 0-2: more cores move only leakage.
	"Device.CPU.Cores":        {in: "base"},
	"Device.CPU.FrequencyMHz": {in: "base"},
	"Device.CPU.IPC":          {in: "base"},

	"Device.CPUPower.EnergyPerInstrJ": {in: "base"},
	"Device.CPUPower.LeakageWPerCore": {in: "base"},

	"Device.OPRatio":        {in: "base"},
	"Device.PartialUpdate":  {in: "base"},
	"Device.WearLevelDelta": {in: "base"},
	"Device.RAINWidth":      {in: "base"},

	"Device.CacheLines":         {in: "base"},
	"Device.ReadaheadThreshold": {in: "base"},
	"Device.ReadaheadLines":     {in: "base"},

	"Device.Protocol.Kind": {in: "base", to: proto.SATA},
	// Below the runs' depth of 8.
	"Device.Protocol.QueueDepthLimit":    {in: "base", to: 4},
	"Device.Protocol.LinkBytesPerSec":    {in: "base"},
	"Device.Protocol.CmdFetchBytes":      {in: "base"},
	"Device.Protocol.CompletionBytes":    {in: "base"},
	"Device.Protocol.ControllerLatency":  {in: "base"},
	"Device.Protocol.DoorbellLatency":    {in: "base"},
	"Device.Protocol.InterruptLatency":   {in: "base"},
	"Device.Protocol.HostControllerCopy": {in: "base"},
	"Device.Protocol.SubmitInstr":        {in: "base"},
	"Device.Protocol.CompleteInstr":      {in: "base"},
	"Device.Protocol.ParseMix.Branch":    {in: "base"},
	"Device.Protocol.ParseMix.Load":      {in: "base"},
	"Device.Protocol.ParseMix.Store":     {in: "base"},
	"Device.Protocol.ParseMix.Arith":     {in: "base"},
	"Device.Protocol.ParseMix.FP":        {in: "base"},
	"Device.Protocol.ParseMix.Other":     {in: "base"},
	"Device.Protocol.QueueMix.Branch":    {in: "base"},
	"Device.Protocol.QueueMix.Load":      {in: "base"},
	"Device.Protocol.QueueMix.Store":     {in: "base"},
	"Device.Protocol.QueueMix.Arith":     {in: "base"},
	"Device.Protocol.QueueMix.FP":        {in: "base"},
	"Device.Protocol.QueueMix.Other":     {in: "base"},
	"Device.Protocol.CompleteMix.Branch": {in: "base"},
	"Device.Protocol.CompleteMix.Load":   {in: "base"},
	"Device.Protocol.CompleteMix.Store":  {in: "base"},
	"Device.Protocol.CompleteMix.Arith":  {in: "base"},
	"Device.Protocol.CompleteMix.FP":     {in: "base"},
	"Device.Protocol.CompleteMix.Other":  {in: "base"},

	"Device.Passive":   {in: "base"},
	"Device.TrackData": {neutral: "payload bytes ride along a timing model that never reads them"},
	"Device.Seed":      {in: "base"},

	"Device.Faults.Seed":             {in: "faults"},
	"Device.Faults.ProgramFailProb":  {in: "faults"},
	"Device.Faults.EraseFailProb":    {in: "faults"},
	"Device.Faults.ReadFailProb":     {in: "faults"},
	"Device.Faults.WearEraseLimit":   {in: "faults"},
	"Device.Faults.MaxReadRetries":   {in: "faults"},
	"Device.Faults.ReadRetryLatency": {in: "faults"},
	"Device.Faults.ReadDisturbLimit": {in: "faults"},
	"Device.Faults.RetentionLimit":   {in: "faults"},
	// Zero and one both give this device's default of one spare.
	"Device.SpareBlocks": {in: "faults", to: 4},

	"Host.CPUs":         {in: "base"},
	"Host.FreqMHz":      {in: "base"},
	"Host.IPC":          {in: "base"},
	"Host.Scheduler":    {in: "base", to: host.CFQ},
	"Host.MemBytes":     {neutral: "an allocation cap that no run comes near; host's tests cover running out"},
	"Host.MemBandwidth": {in: "base"},

	"DMAMode":       {in: "base"},
	"HostPageSize":  {in: "base", to: 8192},
	"ContiguousDMA": {in: "base"},
}

// knobOutput is everything a witness may move: each run's span, mean
// latency and failure counters, the FTL's counters, the three energy
// totals, and the NewSystem or Run error.
func knobOutput(cfg core.SystemConfig, sc knobScenario) string {
	s, err := core.NewSystem(cfg)
	if err != nil {
		return "NewSystem: " + err.Error()
	}
	var b strings.Builder
	for i, r := range sc.runs {
		gen, err := workload.NewFIO(r.pattern, r.blockSize, s.VolumeBytes(), uint64(i+1))
		if err != nil {
			return "NewFIO: " + err.Error()
		}
		res, err := s.Run(gen, core.RunConfig{Requests: r.requests, IODepth: r.depth})
		if err != nil {
			return fmt.Sprintf("%sRun %d: %v", b.String(), i, err)
		}
		fmt.Fprintf(&b, "run %d: span %d mean %v failed %d/%d read-only %v\n",
			i, res.Elapsed(), res.Latency.Mean(), res.FailedWrites, res.FailedReads, res.ReadOnly)
	}
	el := sim.Duration(s.Now())
	fmt.Fprintf(&b, "ftl %+v\nenergy %v %v %v\n", s.FTL.Stats(),
		s.Flash.TotalEnergyJoules(el), s.DevDRAM.TotalEnergyJoules(el), s.DevCPU.TotalEnergyJoules(el))
	return b.String()
}

// knobLeaves returns the dotted path of every exported numeric or bool
// field below v.
func knobLeaves(v reflect.Value, prefix string) []string {
	var out []string
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch f := v.Field(i); {
		case f.Kind() == reflect.Struct:
			out = append(out, knobLeaves(f, prefix+sf.Name+".")...)
		case f.Kind() == reflect.Bool || f.CanInt() || f.CanUint() || f.CanFloat():
			out = append(out, prefix+sf.Name)
		}
	}
	return out
}

// perturb sets cfg's leaf at path to to, or by default doubles it (0
// becomes 1) or flips it.
func perturb(cfg *core.SystemConfig, path string, to any) {
	f := reflect.ValueOf(cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		f = f.FieldByName(name)
	}
	switch {
	case to != nil:
		f.Set(reflect.ValueOf(to).Convert(f.Type()))
	case f.Kind() == reflect.Bool:
		f.SetBool(!f.Bool())
	case f.CanInt():
		f.SetInt(max(2*f.Int(), 1))
	case f.CanUint():
		f.SetUint(max(2*f.Uint(), 1))
	default:
		if f.Float() == 0 {
			f.SetFloat(1)
		} else {
			f.SetFloat(2 * f.Float())
		}
	}
}

// firstDiff returns the first line of got that differs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return g[i]
		}
	}
	return "(a prefix of the unperturbed output)"
}

// TestKnobsHaveWitnesses holds every configuration leaf to an observable
// effect: a knob that silently does nothing misleads whoever sweeps it.
func TestKnobsHaveWitnesses(t *testing.T) {
	base := config.PCSystem(config.SmallTestDevice())
	leaves := knobLeaves(reflect.ValueOf(base), "")
	sort.Strings(leaves)

	unperturbed := map[string]string{}
	output := func(in, path string, to any) (got, want string) {
		sc := knobScenarios[in]
		cfg := base
		if sc.setup != nil {
			sc.setup(&cfg)
		}
		if _, ok := unperturbed[in]; !ok {
			unperturbed[in] = knobOutput(cfg, sc)
		}
		perturb(&cfg, path, to)
		return knobOutput(cfg, sc), unperturbed[in]
	}

	isLeaf := map[string]bool{}
	var witnessed, neutral int
	for _, path := range leaves {
		isLeaf[path] = true
		k, ok := witnesses[path]
		switch {
		case !ok:
			t.Errorf("config leaf %s has no witness: give it a scenario it moves, declare it neutral with a reason, or delete it", path)
		case k.neutral != "":
			neutral++
			if got, want := output("base", path, k.to); got != want {
				t.Errorf("%s is neutral (%s), but perturbing it moved %q", path, k.neutral, firstDiff(got, want))
			}
		case knobScenarios[k.in].runs == nil:
			t.Errorf("%s: witness scenario %q does not exist", path, k.in)
		default:
			witnessed++
			if got, want := output(k.in, path, k.to); got == want {
				t.Errorf("%s: perturbing it in scenario %q moves nothing: delete it, or declare it neutral with a reason", path, k.in)
			}
		}
	}
	for path := range witnesses {
		if !isLeaf[path] {
			t.Errorf("witnesses lists %s, which is no longer a config leaf", path)
		}
	}
	t.Logf("config leaves: %d witnessed, %d neutral", witnessed, neutral)
}
