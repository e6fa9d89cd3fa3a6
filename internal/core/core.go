// Package core assembles Amber: the SSD's computation complex (embedded
// cores + internal DRAM), storage complex (multi-channel NAND behind the
// FIL), the firmware stack (HIL splitting, ICL caching with readahead, FTL
// mapping with GC and wear-leveling), a protocol instance (SATA, UFS, NVMe
// or OCSSD), the host system model, and the DMA engine that emulates real
// data movement between them. It exposes the public simulation API used by
// the examples, the command-line tools and the experiment harness.
//
// The System supports both architectures of §V-E: the default "active"
// storage runs the firmware on the SSD's cores; the "passive" (OCSSD)
// configuration moves the ICL and FTL to the host, charging their
// instructions to host cores and their memory to host DRAM, which is
// exactly what pblk + LightNVM do.
package core

import (
	"fmt"
	"reflect"

	"amber/internal/cpu"
	"amber/internal/dma"
	"amber/internal/dram"
	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/hil"
	"amber/internal/host"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/proto"
	"amber/internal/sim"
	"amber/internal/workload"
)

// DeviceConfig describes one SSD.
type DeviceConfig struct {
	Name string

	Geometry   nand.Geometry
	Flash      nand.Timing
	FlashPower nand.Power
	Cell       nand.CellType

	DRAM      dram.Config
	DRAMPower dram.Power

	CPU      cpu.Config
	CPUPower cpu.Power

	// FTL knobs.
	OPRatio        float64
	PartialUpdate  bool
	WearLevelDelta uint32
	// RAINWidth stripes user data across dies with one parity plane per
	// RAINWidth data planes (see ftl.Config.RAINWidth): an uncorrectable
	// read of a data page is then reconstructed from the surviving stripe
	// members instead of losing data. Zero disables parity.
	RAINWidth int

	// ICL knobs: the cache is fully-associative LRU (icl). CacheLines == 0
	// sizes it to 70% of internal DRAM.
	CacheLines         int
	ReadaheadThreshold int
	ReadaheadLines     int

	Protocol proto.Params

	// Passive moves FTL+ICL to the host (OCSSD/pblk architecture).
	Passive bool

	// TrackData carries real payload bytes end to end. Data integrity is
	// guaranteed for sub-page-aligned I/O.
	TrackData bool
	Seed      uint64

	// Faults configures deterministic NAND fault injection (zero disables):
	// program/erase failures retire blocks, uncorrectable reads lose data,
	// and spare exhaustion degrades the device to read-only.
	Faults nand.FaultConfig
	// SpareBlocks overrides the FTL's grown-bad-block budget before the
	// read-only transition; zero keeps the FTL default.
	SpareBlocks int
}

// Validate reports descriptive configuration errors.
func (c DeviceConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if c.OPRatio <= 0 {
		return fmt.Errorf("core: OPRatio must be positive")
	}
	return nil
}

// SystemConfig pairs a device with a host platform.
type SystemConfig struct {
	Device DeviceConfig
	Host   host.Config
	// DMAMode selects timing (per-page) or functional (aggregate) data
	// transfer emulation.
	DMAMode dma.Mode
	// HostPageSize is the system-memory page size pointer lists reference.
	// Zero defaults to 4096.
	HostPageSize int
	// ContiguousDMA models request payload buffers as physically
	// contiguous host pages (hugepage-backed or pinned pool allocation),
	// letting Timing-mode DMA coalesce adjacent pointer-list entries into
	// descriptor batches. Off, every entry arbitrates on its own, the
	// conservative historical behavior.
	ContiguousDMA bool
}

// System is a full simulated machine: host plus SSD. Not safe for
// concurrent use; the simulation is single-threaded by design.
type System struct {
	cfg    SystemConfig
	params proto.Params

	Host    *host.Host
	DevCPU  *cpu.Complex
	DevDRAM *dram.DRAM
	Flash   *nand.Flash
	FTL     *ftl.FTL
	ICL     *icl.Cache
	FIL     *fil.FIL
	DMA     *dma.Engine
	Split   *hil.Splitter

	link *sim.Resource
	hba  *sim.Resource // h-type host controller serialization point
	// flushBuf bounds outstanding dirty-line write-backs: a write completes
	// once its victim's data moved to a flush-buffer slot, and the slot is
	// held until the flash programs land — the write-back decoupling real
	// firmware uses so host writes are acknowledged at DRAM speed until the
	// flash backend saturates.
	flushBuf *sim.Pool

	passive bool
	fw      fwCharges // the cost model's per-request constants (mixes.go)
	now     sim.Time
	lastEnd int64 // sequential-merge detector for the scheduler model

	// MSHR-style in-flight fill tracking: concurrent demand reads and
	// prefetches of the same super-page coalesce onto one flash fetch.
	// fillSlot has one slot per LSPN of the volume: 0 while no fetch of it
	// is in flight, else 1 + the index of its entry in fills, which holds
	// the subs being fetched and the readers parked until a fetch lands. An
	// entry whose last fetch landed goes on fillsFree and serves the next
	// LSPN to miss, so fills holds as many entries as LSPNs were ever in
	// flight at once.
	fillSlot  []int32
	fills     []inFlight
	fillsFree []int32

	// RAIN reconstruction + patrol scrub state (see rain.go): super-blocks
	// whose reconstruction pressure demands a forced scrub, whether a
	// patrol scrubber is armed (Run with ScrubEvery > 0 — the
	// scrub-or-retire policy switch), repairs queued by GC plan-fault
	// recovery, and the controller-RAM scratch stripe reassembly XORs
	// members into.
	scrubPending []int
	scrubArmed   bool
	rainRepairs  []rainRepair
	rainDraining bool
	reconLocs    []ftl.PageLoc
	reconBuf     []byte
	reconTmp     []byte
	reconDirty   []bool
	reconData    []byte

	// Submit-path op pools (see submit.go): recycled request and fill
	// carriers with their step callbacks bound once.
	opFree   []*submitOp
	fillFree []*fillOp
	// lineBufFree recycles the line-sized staging buffers of data-tracking
	// reads and partial-sub merges (acquireLineBuf); its high-water mark is
	// the most lines ever staged at once.
	lineBufFree [][]byte
	// stagedCopied and stagedZeroed count the payload bytes copied and zeroed
	// in those buffers and out of them (PayloadBytes); no image holds them.
	stagedCopied, stagedZeroed uint64

	// Per-engine scheduling-domain cache (see domainsFor).
	domTab []*engineDomains

	// Reusable state for the synchronous Submit wrapper.
	subEngine   *sim.Engine
	subStartFn  func()
	subFinishFn func(sim.Time, error)
	subReq      workload.Request
	subData     []byte
	subDone     sim.Time
	subErr      error

	// Vectored submit state (SubmitBatch): the inline path's line scratch
	// and the window counters the ambersim footer reports.
	batchLines   []hil.Line
	batchWindows uint64
	batchReqs    uint64

	reqs         uint64
	bytesRead    uint64
	bytesWritten uint64
}

// ftlConfigOf maps the device knobs to the FTL configuration. Mount-time
// recovery reconstructs FTLs from it, so it must stay the single source.
func ftlConfigOf(d DeviceConfig) ftl.Config {
	return ftl.Config{
		Geometry:       d.Geometry,
		OPRatio:        d.OPRatio,
		PartialUpdate:  d.PartialUpdate,
		WearLevelDelta: d.WearLevelDelta,
		SpareBlocks:    d.SpareBlocks,
		RAINWidth:      d.RAINWidth,
	}
}

// NewSystem wires a full machine from the configuration.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	if cfg.HostPageSize == 0 {
		cfg.HostPageSize = 4096
	}
	d := cfg.Device

	h, err := host.New(cfg.Host)
	if err != nil {
		return nil, err
	}
	devCPU, err := cpu.New(d.CPU, d.CPUPower)
	if err != nil {
		return nil, err
	}
	devDRAM, err := dram.New(d.DRAM, d.DRAMPower)
	if err != nil {
		return nil, err
	}
	flash, err := nand.New(d.Geometry, d.Flash, d.FlashPower, d.Cell, nand.Options{
		TrackData: d.TrackData, Seed: d.Seed, Faults: d.Faults,
	})
	if err != nil {
		return nil, err
	}
	translator, err := ftl.New(ftlConfigOf(d))
	if err != nil {
		return nil, err
	}
	f, err := fil.New(flash, translator.Address)
	if err != nil {
		return nil, err
	}

	subSize := d.Geometry.PageSize
	subsPerLine := d.Geometry.TotalPlanes()
	lineBytes := int64(subSize) * int64(subsPerLine)
	lines := d.CacheLines
	if lines == 0 {
		if d.Passive {
			// pblk's host-side buffer is a fixed 64 MB ring (§V-E), far
			// smaller than the device DRAM an active SSD would use.
			lines = int((64 << 20) / lineBytes)
		} else {
			lines = int(d.DRAM.CapacityBytes * 7 / 10 / lineBytes)
		}
		if lines < 4 {
			lines = 4
		}
	}
	cacheCfg := icl.Config{
		Lines:              lines,
		SubsPerLine:        subsPerLine,
		SubSize:            subSize,
		ReadaheadThreshold: d.ReadaheadThreshold,
		ReadaheadLines:     d.ReadaheadLines,
		TrackData:          d.TrackData,
		SuperPages:         translator.UserSuperPages(),
	}
	cache, err := icl.New(cacheCfg)
	if err != nil {
		return nil, err
	}
	// A prefetch hands the cache the flash pages it pinned (fillOp.done);
	// the cache unpins each when its sub lets go of it.
	cache.SetPinRelease(flash.Unpin)

	split, err := hil.NewSplitter(subSize, subsPerLine)
	if err != nil {
		return nil, err
	}

	link := sim.NewResource("link." + d.Protocol.Kind.String())
	engine, err := dma.New(dma.Config{
		Link:               link,
		LinkBytesPerSec:    d.Protocol.LinkBytesPerSec,
		HostMem:            h.Mem,
		HostMemBytesPerSec: cfg.Host.MemBandwidth,
		Mode:               cfg.DMAMode,
		HostControllerCopy: d.Protocol.HostControllerCopy,
	})
	if err != nil {
		return nil, err
	}

	s := &System{
		cfg:     cfg,
		params:  d.Protocol,
		Host:    h,
		DevCPU:  devCPU,
		DevDRAM: devDRAM,
		Flash:   flash,
		ICL:     cache,
		FIL:     f,
		DMA:     engine,
		Split:   split,
		link:    link,
		passive: d.Passive,
		lastEnd: -1,
	}
	s.fillSlot = make([]int32, cacheCfg.SuperPages)
	// The FTL and flash were constructed together above, so they are in
	// lockstep by definition, which is what bindFTL's certificate asserts.
	if err := s.bindFTL(translator); err != nil {
		return nil, err
	}
	if d.Protocol.HostControllerCopy {
		s.hba = sim.NewResource("hba")
	}
	s.flushBuf = sim.NewPool("flushbuf", d.Geometry.TotalPlanes())
	s.compileCharges()

	// Memory accounting: the firmware's cache and mapping tables live in
	// the internal DRAM for active storage; pblk moves them to the host
	// (64 MB buffer + tables), §V-E.
	mapBytes := translator.UserSuperPages() * int64(subsPerLine) * 8
	if d.Passive {
		if err := h.Alloc(64<<20 + mapBytes); err != nil {
			return nil, err
		}
	} else {
		if err := devDRAM.Reserve(cacheCfg.CapacityBytes() + mapBytes); err != nil {
			return nil, fmt.Errorf("core: internal DRAM too small for cache+map: %w", err)
		}
		// Host driver pools (queues, PRP pages).
		if err := h.Alloc(16 << 20); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// bindFTL wires an FTL that is in lockstep with the flash — the one
// NewSystem built beside it, or the one Mount rebuilt from its OOB stamps —
// into the firmware stack.
func (s *System) bindFTL(t *ftl.FTL) error {
	// Durable bad-block table: every retirement the FTL decides is stamped
	// into the flash's grown-bad-block list (one entry per plane block of
	// the super-block), which is what mount-time recovery replays to rebuild
	// the retirement order — and the read-only latch — from flash state
	// alone.
	flash, g := s.Flash, s.cfg.Device.Geometry
	t.SetRetireHook(func(sb int) {
		for plane := 0; plane < g.TotalPlanes(); plane++ {
			addr := t.Address(ftl.PageLoc{SB: sb, Plane: plane})
			flash.MarkBadBlock(g.BlockIndex(addr))
		}
	})
	// Read certificates: lookups stamp the flash mutation epoch they were
	// performed under, so the FIL can honor "mapped ⇒ written" on the read
	// side and skip the per-address validation walk while the chain holds.
	// A certificate names its issuer, so those an earlier FTL minted are
	// rejected from here on.
	t.SetEpochSource(flash.StateEpoch)
	s.FTL = t
	// Certified plans: the binding that lets the FIL execute the FTL's
	// plans without the prevalidation double-walk. The whole I/O path keeps
	// the chain armed (no raw OCSSD traffic crosses it); anything that
	// breaks lockstep disarms automatically.
	return s.FIL.AcceptCertified(t)
}

// engineDomains is one engine's resolved scheduling-domain ids: the label
// each subsystem's stage-boundary events are scheduled and counted under. Resolving names
// once per engine keeps the hot path free of map lookups.
//
// The per-channel nand domains carry no events: every flash transaction,
// tracked page bytes included, takes effect at issue (nand.PlanBatch). They
// stay registered because a domain's id and name are part of
// sim.Engine.DomainStats, which every recorded run digest covers, so the
// registration order below is pinned (TestEngineDomainTableStable).
type engineDomains struct {
	e    *sim.Engine
	host sim.DomainID   // request issue slots, kernel submit/complete
	cpu  sim.DomainID   // firmware parse boundaries
	icl  sim.DomainID   // cache/DRAM write-back boundaries
	dma  sim.DomainID   // payload-transfer boundaries
	pub  sim.DomainID   // fill publishes (staged line buffers)
	nand []sim.DomainID // per-channel, eventless (fil.ExecuteOn takes them)
}

// domainsFor resolves (registering on first use) this system's scheduling
// domains on e. The cache is a small linear-scan table: a System drives at
// most a couple of engines at a time (its reusable Submit engine plus one
// per Run loop), so a scan beats a map and keeps steady state
// allocation-free.
func (s *System) domainsFor(e *sim.Engine) *engineDomains {
	for _, d := range s.domTab {
		if d.e == e {
			return d
		}
	}
	d := &engineDomains{
		e:    e,
		host: e.Domain(host.Domain),
		cpu:  e.Domain(cpu.Domain),
		icl:  e.Domain(dram.Domain),
		dma:  e.Domain(dma.Domain),
	}
	d.pub = e.Domain(fil.PublishDomain)
	channels := s.cfg.Device.Geometry.Channels
	d.nand = make([]sim.DomainID, channels)
	for ch := 0; ch < channels; ch++ {
		d.nand[ch] = e.Domain(nand.ChannelDomain(ch))
	}
	if len(s.domTab) >= 4 {
		// Stale entries from completed Run loops: keep the long-lived
		// Submit engine's entry (so the synchronous path stays
		// allocation-free), zero the rest for the collector. An evicted
		// live engine just re-resolves (idempotent).
		kept := s.domTab[:0]
		for _, t := range s.domTab {
			if t.e == s.subEngine {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(s.domTab); i++ {
			s.domTab[i] = nil
		}
		s.domTab = kept
	}
	s.domTab = append(s.domTab, d)
	return d
}

// Config returns the system configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// Now returns the system's current simulated time.
func (s *System) Now() sim.Time { return s.now }

// BatchStats returns how many requests SubmitBatch has processed and how
// many batch windows it drained for them — zero windows with
// nonzero requests means every request fell back to the evented path.
func (s *System) BatchStats() (windows, requests uint64) {
	return s.batchWindows, s.batchReqs
}

// PayloadBytes returns the payload bytes core has copied and zeroed staging
// lines: a read's bytes copied from its line buffer to the request buffer, a
// partial write's payload merged over its flash sub-pages, and the subs a
// fill or a merge finds unmapped, zeroed. The bytes the cache and the flash
// move are theirs to count (icl.Cache.PayloadBytes, nand.Flash.PayloadBytes).
// A timing-only system moves none.
func (s *System) PayloadBytes() (copied, zeroed uint64) {
	return s.stagedCopied, s.stagedZeroed
}

// Counters is every cumulative count and energy a measured window reports,
// read at one instant by System.Counters. A window is the difference of two
// readings: Since.
type Counters struct {
	FTL      ftl.Stats
	ICL      icl.Stats
	Firmware cpu.InstrMix
	DMA      dma.Stats
	FIL      fil.Stats
	Faults   nand.FaultStats
	HostBusy sim.Duration
	// Dynamic energy so far, joules: the embedded cores, the internal DRAM
	// and the flash.
	CPUJ, DRAMJ, NANDJ float64

	ftl *ftl.FTL // the instance the FTL field was read from; nil in a difference
}

// Counters reads every cumulative counter at the current instant.
func (s *System) Counters() Counters {
	return Counters{
		FTL: s.FTL.Stats(), ICL: s.ICL.Stats(), Firmware: s.DevCPU.Instructions(),
		DMA: s.DMA.Stats(), FIL: s.FIL.Stats(), Faults: s.Flash.FaultStats(),
		HostBusy: s.Host.CPU.BusyTime(),
		CPUJ:     s.DevCPU.EnergyJoules(), DRAMJ: s.DevDRAM.EnergyJoules(), NANDJ: s.Flash.EnergyJoules(),
		ftl: s.FTL,
	}
}

// Since returns what the window from base to c added, field by field. A
// mount between the two readings (recovery after a power cut) replaced the
// FTL, whose counters restart at zero, so the window's FTL counters are then
// the mounted FTL's own. Both readings must come from one System with no
// Restore between them.
func (c Counters) Since(base Counters) Counters {
	if base.ftl != c.ftl {
		base.FTL = ftl.Stats{}
	}
	d := c
	d.ftl = nil
	subtract(reflect.ValueOf(&d).Elem(), reflect.ValueOf(base))
	return d
}

// subtract sets each exported number in d to itself minus its twin in b.
// Every count is a uint64 that only grows, every energy a float64.
func subtract(d, b reflect.Value) {
	switch d.Kind() {
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			if d.Type().Field(i).IsExported() {
				subtract(d.Field(i), b.Field(i))
			}
		}
	case reflect.Uint64:
		d.SetUint(d.Uint() - b.Uint())
	case reflect.Float64:
		d.SetFloat(d.Float() - b.Float())
	default:
		panic("core: Counters holds a " + d.Type().String() + ", which Since cannot subtract")
	}
}

// WindowWatts returns the average power of the embedded cores, the internal
// DRAM and the flash over a window of length el that began at base: the
// dynamic energy the window added plus leakage and background for el. A
// zero window draws nothing.
func (s *System) WindowWatts(base Counters, el sim.Duration) (cpuW, dramW, nandW float64) {
	if el == 0 {
		return 0, 0, 0
	}
	sec := el.Seconds()
	return (s.DevCPU.TotalEnergyJoules(el) - base.CPUJ) / sec,
		(s.DevDRAM.TotalEnergyJoules(el) - base.DRAMJ) / sec,
		(s.Flash.TotalEnergyJoules(el) - base.NANDJ) / sec
}

// DefaultBatchWindow is SubmitBatch's submission-window ceiling: the shared
// engine is reset, and the flash's in-flight journals pruned, at least this
// often even for arbitrarily long request vectors. The host scheduler's
// depth cap and the protocol's hardware queue limit still clamp below it.
const DefaultBatchWindow = 64

// SubmitEngineDomainStats returns the per-domain event counts of the
// synchronous Submit path's engine, nil before the first Submit. Reporting
// tools use it to show how engine traffic spreads across domains.
func (s *System) SubmitEngineDomainStats() []sim.DomainStat {
	if s.subEngine == nil {
		return nil
	}
	return s.subEngine.DomainStats()
}

// VolumeBytes returns the logical capacity exposed to the host.
func (s *System) VolumeBytes() int64 {
	return s.FTL.UserSuperPages() * int64(s.FTL.SuperPageBytes())
}

// listKind maps the protocol to its pointer-list structure.
func (s *System) listKind() dma.ListKind {
	switch s.params.Kind {
	case proto.SATA:
		return dma.PRDT
	case proto.UFS:
		return dma.UPIU
	default:
		return dma.PRP
	}
}
