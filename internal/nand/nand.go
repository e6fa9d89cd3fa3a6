// Package nand models the SSD storage backend: a multi-channel, multi-way
// NAND flash subsystem with per-die and per-channel contention, MLC/TLC
// page-position-dependent latencies with ISPP variation, erase-before-write
// and in-order-program enforcement, per-operation energy accounting, wear
// counters, and optional tracking of real page contents (Amber's data
// transfer emulation).
//
// The model corresponds to the paper's "storage complex" (§II-B, Fig. 2):
// packages containing dies hang off channel buses (ONFi); the set of dies at
// the same offset across channels forms a way; flash firmware spreads
// requests across channels and ways for parallelism.
//
// Pages have two numberings. PageIndex, the global physical page number
// (plane-major: every page of a plane's blocks, then the next plane), names a
// page everywhere outside the package and inside it for the tracked-payload
// arena, the fault and torn-page draws and the snapshot walk. The per-page
// metadata — OOB stamps and payload checksums — is stored in slot order
// instead: slot (Block × PagesPerBlock + Page) × TotalPlanes + PlaneIndex, so
// the pages an FTL super-page spans (the same block and page on every plane)
// are one contiguous row, laid out the way the FTL's reverse map is
// (super-block, then page, then plane; the FTL numbers a row's planes
// channel first, so within the row the two orders differ). A super-page
// program or a GC pass then writes its stamps in one short sweep; in
// PageIndex order the same stamps lie a whole plane's metadata apart and
// evict one another from the same few cache sets. An erase, which touches
// one plane's block, gathers its stamps a row apart instead.
package nand

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"amber/internal/sim"
)

// CellType selects the flash technology, which determines how many latency
// classes a block's pages fall into (SLC: one, MLC: two, TLC: three).
type CellType int

// Supported flash cell technologies.
const (
	SLC CellType = iota + 1
	MLC
	TLC
)

// String returns the conventional name of the cell type.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// LatencyClasses returns the number of page latency classes for the cell
// type: pages within a wordline program at different speeds (LSB fast, MSB
// slow for MLC; low/center/upper for TLC). It is 0 for an unknown type.
func (c CellType) LatencyClasses() int {
	switch c {
	case SLC:
		return 1
	case MLC:
		return 2
	case TLC:
		return 3
	default:
		return 0
	}
}

// Geometry describes the physical organization of the flash backend.
type Geometry struct {
	Channels           int // independent ONFi buses
	PackagesPerChannel int // ways
	DiesPerPackage     int
	PlanesPerDie       int
	BlocksPerPlane     int
	PagesPerBlock      int
	PageSize           int // bytes of user data per physical page
}

// Validate reports a descriptive error if any dimension is non-positive.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("nand: geometry %s must be positive, got %d", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"PackagesPerChannel", g.PackagesPerChannel},
		{"DiesPerPackage", g.DiesPerPackage},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	return nil
}

// TotalDies returns the number of independently operating dies.
func (g Geometry) TotalDies() int {
	return g.Channels * g.PackagesPerChannel * g.DiesPerPackage
}

// TotalPlanes returns the number of planes across all dies.
func (g Geometry) TotalPlanes() int { return g.TotalDies() * g.PlanesPerDie }

// TotalBlocks returns the number of physical blocks.
func (g Geometry) TotalBlocks() int { return g.TotalPlanes() * g.BlocksPerPlane }

// TotalPages returns the number of physical pages.
func (g Geometry) TotalPages() int64 {
	return int64(g.TotalBlocks()) * int64(g.PagesPerBlock)
}

// ChannelDomain names the scheduling domain that the flash-completion
// events of one channel are scheduled and counted under.
func ChannelDomain(channel int) string {
	return "nand.ch" + strconv.Itoa(channel)
}

// Address identifies one physical page (or, for erase, its block).
type Address struct {
	Channel int
	Package int
	Die     int
	Plane   int
	Block   int
	Page    int
}

func (a Address) String() string {
	return fmt.Sprintf("ch%d/pkg%d/die%d/pl%d/blk%d/pg%d",
		a.Channel, a.Package, a.Die, a.Plane, a.Block, a.Page)
}

// DieIndex returns the global die index of the address.
func (g Geometry) DieIndex(a Address) int {
	return (a.Channel*g.PackagesPerChannel+a.Package)*g.DiesPerPackage + a.Die
}

// PlaneIndex returns the global plane index of the address.
func (g Geometry) PlaneIndex(a Address) int {
	return g.DieIndex(a)*g.PlanesPerDie + a.Plane
}

// BlockIndex returns the global block index of the address.
func (g Geometry) BlockIndex(a Address) int {
	return g.PlaneIndex(a)*g.BlocksPerPlane + a.Block
}

// dieOf, blockOfDie and pageOfDie are DieIndex, BlockIndex and PageIndex for
// the per-op paths: the die index is computed once and everything else
// derived from it, and the 48-byte Address travels by pointer — copied by
// value right after its fields were stored one by one (a register-passed
// parameter spilled on entry), it costs a failed store-to-load forward per
// call.
func (g *Geometry) dieOf(a *Address) int {
	return (a.Channel*g.PackagesPerChannel+a.Package)*g.DiesPerPackage + a.Die
}

func (g *Geometry) blockOfDie(di int, a *Address) int {
	return (di*g.PlanesPerDie+a.Plane)*g.BlocksPerPlane + a.Block
}

func (g *Geometry) pageOfDie(di int, a *Address) int64 {
	return int64(g.blockOfDie(di, a))*int64(g.PagesPerBlock) + int64(a.Page)
}

// PageIndex returns the global physical page number of the address.
func (g Geometry) PageIndex(a Address) int64 {
	return int64(g.BlockIndex(a))*int64(g.PagesPerBlock) + int64(a.Page)
}

// CheckAddress reports an error if a falls outside the geometry.
func (g Geometry) CheckAddress(a Address) error {
	switch {
	case a.Channel < 0 || a.Channel >= g.Channels:
		return fmt.Errorf("nand: channel %d out of range [0,%d)", a.Channel, g.Channels)
	case a.Package < 0 || a.Package >= g.PackagesPerChannel:
		return fmt.Errorf("nand: package %d out of range [0,%d)", a.Package, g.PackagesPerChannel)
	case a.Die < 0 || a.Die >= g.DiesPerPackage:
		return fmt.Errorf("nand: die %d out of range [0,%d)", a.Die, g.DiesPerPackage)
	case a.Plane < 0 || a.Plane >= g.PlanesPerDie:
		return fmt.Errorf("nand: plane %d out of range [0,%d)", a.Plane, g.PlanesPerDie)
	case a.Block < 0 || a.Block >= g.BlocksPerPlane:
		return fmt.Errorf("nand: block %d out of range [0,%d)", a.Block, g.BlocksPerPlane)
	case a.Page < 0 || a.Page >= g.PagesPerBlock:
		return fmt.Errorf("nand: page %d out of range [0,%d)", a.Page, g.PagesPerBlock)
	}
	return nil
}

// Timing holds the flash transaction timing model (Table I and §V-A): page
// read (tR) and program (tPROG) ranges whose endpoints are the fast/slow
// page-class latencies, block erase time, ONFi channel transfer rate and
// command/address overhead.
type Timing struct {
	ReadFast   sim.Duration // tR for the fastest page class
	ReadSlow   sim.Duration // tR for the slowest page class
	ProgFast   sim.Duration // tPROG for the fastest page class
	ProgSlow   sim.Duration // tPROG for the slowest page class
	Erase      sim.Duration // tERASE
	BusMTps    float64      // channel transfer rate in megatransfers/s (8-bit bus: 1 MT = 1 byte)
	CmdCycles  sim.Duration // command + address phase occupancy on the channel
	ISPPJitter float64      // +/- fractional jitter applied to tPROG draws (incremental step pulse programming)
}

// Validate reports an error for non-physical timing parameters.
func (t Timing) Validate() error {
	if t.ReadFast == 0 || t.ProgFast == 0 || t.Erase == 0 {
		return fmt.Errorf("nand: timing must set ReadFast, ProgFast and Erase")
	}
	if t.ReadSlow < t.ReadFast || t.ProgSlow < t.ProgFast {
		return fmt.Errorf("nand: slow latencies must be >= fast latencies")
	}
	if t.BusMTps <= 0 {
		return fmt.Errorf("nand: BusMTps must be positive, got %v", t.BusMTps)
	}
	if t.ISPPJitter < 0 || t.ISPPJitter >= 1 {
		return fmt.Errorf("nand: ISPPJitter must be in [0,1), got %v", t.ISPPJitter)
	}
	return nil
}

// BusBytesPerSecond returns the channel bandwidth in bytes per second.
func (t Timing) BusBytesPerSecond() float64 { return t.BusMTps * 1e6 }

// XferTime returns channel occupancy for moving n bytes of page data.
func (t Timing) XferTime(n int) sim.Duration {
	return sim.TransferTime(int64(n), t.BusBytesPerSecond())
}

// Power holds the per-operation energy model for the storage complex
// (NANDFlashSim-style): array access energies plus per-byte transfer energy
// between the internal DRAM and each package's row buffer, and per-die
// leakage.
type Power struct {
	ReadEnergyJ        float64 // array read (tR) energy per page
	ProgEnergyJ        float64 // program energy per page
	EraseEnergyJ       float64 // erase energy per block
	XferEnergyJPerByte float64
	LeakageWPerDie     float64
}

// OpKind distinguishes flash transactions.
type OpKind int

// Flash transaction kinds.
const (
	OpRead OpKind = iota + 1
	OpProgram
	OpErase
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Result reports the timing of one flash transaction.
type Result struct {
	Start sim.Time // when the transaction began occupying its first resource
	Ready sim.Time // when the die finished the array operation
	Done  sim.Time // when the transaction fully completed (incl. data transfer)
}

// Stats aggregates flash activity.
type Stats struct {
	Reads         uint64
	Programs      uint64
	Erases        uint64
	BytesRead     uint64
	BytesWritten  uint64
	MultiPlaneOps uint64
}

// blockState tracks per-block physical condition.
type blockState struct {
	eraseCount uint32
	nextPage   int32 // next programmable page (in-order constraint); PagesPerBlock means full
	// bad marks a grown bad block: durable (it survives power loss — real
	// firmware keeps a bad-block table in flash), recorded by MarkBadBlock
	// when the FTL retires the block's super-block.
	bad bool
}

// pageOOB models the out-of-band (spare) area real NAND pages carry: the
// firmware stamps every program with the owning logical sub-page (fi, an
// FTL-defined tag; -1 for untagged raw programs), a device-wide
// monotonically increasing write sequence number, and a payload checksum
// (kept beside it in Flash.sums, on a tracked flash only). Mount-time
// recovery rebuilds the whole mapping table from these stamps alone: the
// highest sequence number wins a logical sub-page, and a failed checksum
// (modeled by the good flag, cleared when a power cut tears the program)
// marks the page unwritten. The stamp also carries the page's written flag,
// the functional state reads and programs check: programmed since its
// block's last erase. It holds durable state only: when the array operation
// completes, which decides whether a power cut catches the program in
// flight, is kept by the program journal (progJournal) for as long as a cut
// still can. A RAIN parity page's stripe mask is spare-area state too, but
// only parity pages carry one, so it lives in a side table (Flash.stripes)
// a device without RAIN never allocates.
//
// Every physical page carries one, so the layout is a budget: 12 bytes
// (asserted below), three 32-bit fields with nothing to pad. The sequence
// word — the write sequence number with the good and written flags in its
// top two bits (the sequence counts programs one by one from 1 and never
// reaches bit 62) — is stored as two halves, because a uint64 field would
// align the struct to 8 bytes and pad it to 16; the flags sit in the high
// half. fi is 32 bits, because the FTL's forward-map indices are (ftl.New
// bounds them) and New bounds the page count the same way. fi is stored
// complemented, so the erased stamp (tag -1, no flags, nothing else) is the
// zero value: a new flash's stamps are erased as allocated, and an erase
// clears them. Stamps are stored in slot order (see the package comment),
// one contiguous row per super-page.
type pageOOB struct {
	seqLo uint32 // the sequence word's low half
	seqHi uint32 // its high half: hiGood | hiWritten | the sequence's bits 32-61; 0 when erased
	notFI int32  // ^fi: 0 for the erased stamp's -1
}

// Compile-time proof of the 12-byte budget: any other size makes the
// constant index out of range.
var _ = [1]struct{}{}[unsafe.Sizeof(pageOOB{})-12]

// The flag bits of the sequence word: the checksum verdict and the written
// flag, and the same bits in its high half (pageOOB.seqHi).
const (
	oobGood    = 1 << 63
	oobWritten = 1 << 62
	oobFlags   = oobGood | oobWritten
	hiGood     = oobGood >> 32
	hiWritten  = oobWritten >> 32
)

func (o *pageOOB) good() bool    { return o.seqHi&hiGood != 0 }
func (o *pageOOB) written() bool { return o.seqHi&hiWritten != 0 }
func (o *pageOOB) seqWord() uint64 {
	return uint64(o.seqHi)<<32 | uint64(o.seqLo)
}
func (o *pageOOB) seqNo() uint64 { return o.seqWord() &^ oobFlags }
func (o *pageOOB) fi() int64     { return int64(^o.notFI) }

// setSeq splits the sequence word w (sequence number and flags) into the
// stamp's two halves.
func (o *pageOOB) setSeq(w uint64) { o.seqLo, o.seqHi = uint32(w), uint32(w>>32) }

func goodBit(g bool) uint64 {
	if g {
		return oobGood
	}
	return 0
}

// stripeTab holds RAIN stripe membership masks by index (bit i set: data
// plane i of the page's parity group is covered; 32 bits, as a RAIN group
// may have 32 data planes). It stays nil until a mask is non-zero, so a
// flash that never programs parity holds none of it; a nil table reads as
// all zero.
type stripeTab []uint32

func (t stripeTab) at(i int64) uint32 {
	if t == nil {
		return 0
	}
	return t[i]
}

// set stores mask m at i, allocating the table's n entries on the first
// non-zero mask.
func (t *stripeTab) set(i int64, m uint32, n int) {
	if *t == nil {
		if m == 0 {
			return
		}
		*t = make(stripeTab, n)
	}
	(*t)[i] = m
}

// arenaChunkPages is the number of physical pages per arena chunk. Chunks
// are sized so a typical working set touches a handful of large contiguous
// allocations instead of one small allocation per programmed page.
const arenaChunkPages = 256

// pageArena stores tracked page contents as one page-size buffer per
// physical page, in lazily allocated fixed-size chunks indexed by global
// physical page number, with a presence bitmap. A chunk's buffers start out
// as the slices of one allocation; a program then installs by handing the
// arena the staging buffer it issued with and taking the page's previous
// buffer in exchange (install), so buffers circulate between the arena and
// the staging pool and an install copies and allocates nothing. An erase
// takes its block's present buffers out (take) into its undo record; a page
// left without a buffer gets one from its next install.
type pageArena struct {
	pageSize int
	chunks   [][][]byte // chunk i: the buffers of pages [i*arenaChunkPages, (i+1)*arenaChunkPages)
	present  []uint64   // one bit per physical page
}

func newPageArena(totalPages int64, pageSize int) *pageArena {
	nChunks := (totalPages + arenaChunkPages - 1) / arenaChunkPages
	return &pageArena{
		pageSize: pageSize,
		chunks:   make([][][]byte, nChunks),
		present:  make([]uint64, (totalPages+63)/64),
	}
}

// entry returns page idx's place in the page table, allocating its chunk —
// table and buffers — on first use.
func (a *pageArena) entry(idx int64) *[]byte {
	ci := idx / arenaChunkPages
	if a.chunks[ci] == nil {
		backing := make([]byte, arenaChunkPages*a.pageSize)
		pages := make([][]byte, arenaChunkPages)
		for i := range pages {
			pages[i] = backing[i*a.pageSize : (i+1)*a.pageSize : (i+1)*a.pageSize]
		}
		a.chunks[ci] = pages
	}
	return &a.chunks[ci][idx%arenaChunkPages]
}

func (a *pageArena) has(idx int64) bool {
	return a.present[idx/64]&(1<<(uint(idx)%64)) != 0
}

// put copies data (shorter payloads are zero-padded) in as page idx's
// contents: the snapshot decoder's way in.
func (a *pageArena) put(idx int64, data []byte) {
	p := a.entry(idx)
	if *p == nil {
		*p = make([]byte, a.pageSize)
	}
	clear((*p)[copy(*p, data):])
	a.present[idx/64] |= 1 << (uint(idx) % 64)
}

// install makes buf, a whole page the caller gives up, page idx's contents
// and returns the buffer the page held before (nil if none), which is the
// caller's now.
func (a *pageArena) install(idx int64, buf []byte) (old []byte) {
	p := a.entry(idx)
	old, *p = *p, buf
	a.present[idx/64] |= 1 << (uint(idx) % 64)
	return old
}

// take removes page idx's contents and returns their buffer, which is the
// caller's now, or nil when the page holds nothing.
func (a *pageArena) take(idx int64) []byte {
	if !a.has(idx) {
		return nil
	}
	p := a.entry(idx)
	buf := *p
	*p = nil
	a.clearRange(idx, 1)
	return buf
}

// get returns page idx's contents, or nil when nothing was stored.
func (a *pageArena) get(idx int64) []byte {
	if !a.has(idx) {
		return nil
	}
	return *a.entry(idx)
}

// clearRange drops presence for pages [base, base+n). Their buffers stay in
// the table, for the pages' next installs to exchange.
func (a *pageArena) clearRange(base int64, n int) {
	for idx := base; idx < base+int64(n); idx++ {
		a.present[idx/64] &^= 1 << (uint(idx) % 64)
	}
}

// Flash is the storage complex. It is not safe for concurrent use. Every
// transaction takes effect when it is issued — its claims, its functional
// block-state transition, its fault draw, its counters and energy and, on a
// tracked flash, its page bytes — so the flash schedules no events.
type Flash struct {
	geo  Geometry
	tim  Timing
	pow  Power
	cell CellType
	// xferPage is tim.XferTime(geo.PageSize), the channel occupancy of one
	// page's data phase: every read and program claims it, so the float
	// conversion behind it runs once, in New.
	xferPage sim.Duration
	// readLat and progLat are the nominal tR and tPROG of each page class
	// (pageClass), computed once for the same reason; progSec is progLat in
	// seconds, what ISPP jitter scales.
	readLat, progLat []sim.Duration
	progSec          []float64

	channels []*sim.Resource // one per channel bus
	dies     []*sim.Resource // one per die
	blocks   []blockState

	// oob holds the per-page out-of-band metadata, indexed by slot (see the
	// package comment; planes is TotalPlanes, the slot's stride from one
	// page of a block to the next) — 12 bytes a page, most of a timing-only
	// flash's heap; progSeq is the device-wide write sequence counter its
	// stamps draw from. sums holds each page's payload checksum (pageSum of
	// the tracked payload; 0: programmed without one, nothing to verify),
	// by slot too, 8 bytes a page, on a tracked flash only: nil on a
	// timing-only one, where every checksum would be 0. stripes holds each
	// page's RAIN stripe mask by slot, 4 bytes a page once a parity program
	// stamps the first mask (SetPageStripe, or a decoded image carrying
	// one): nil until then, so a flash without RAIN never holds it. All
	// four are durable across power loss.
	oob     []pageOOB
	sums    []uint64
	stripes stripeTab
	progSeq uint64
	planes  int64

	// badOrder lists grown bad blocks (global block indices) in the order
	// MarkBadBlock recorded them — the durable bad-block table mount-time
	// recovery rebuilds the FTL retirement order from.
	badOrder []int32

	trackData bool
	// data holds one tracked-page arena per channel, indexed by
	// channel-local physical page number (the channel is the geometry's
	// most significant dimension, so each channel's pages are one
	// contiguous global range).
	data      []*pageArena
	pagesPerC int64 // physical pages per channel

	rng *sim.RNG

	// faults draws injected program/erase/read failures; nil when fault
	// injection is disabled, so the hot paths pay one nil check. All draws
	// and stat updates happen at issue.
	faults *faultModel

	// Activity counters and dynamic energy are accumulated per channel, in
	// issue order, and merged in channel order by Stats/EnergyJoules, so
	// the float sum has one order.
	chStats  []Stats
	chEnergy []float64

	// copied and zeroed count the tracked payload bytes the flash has moved
	// between caller buffers and pages and cleared in them (PayloadBytes),
	// and pinsTaken the pins Pin took instead of a copy (PinsTaken): no
	// Stats field and no part of an image.
	copied, zeroed, pinsTaken uint64

	// pageBufs is the staging pool: page buffers no page holds (StagingBuf).
	pageBufs [][]byte
	// pins holds the live pins (Pin), keyed on the pinned buffer's first
	// byte: a buffer outlives its page's contents (an erase takes it, and
	// the page can be reprogrammed and pinned again while the old pin
	// lives), so the page cannot be the key.
	pins map[*byte]pin

	// plan is the reusable context for BeginPlan (one plan executes at a
	// time).
	plan PlanBatch

	// epoch counts functional block-state transitions (programs and erases,
	// on any path). It backs the certified
	// plan fast path: an executor that recorded the epoch after its last
	// plan can tell with one comparison whether anything else (raw OCSSD
	// ops, another executor) has mutated the flash since, which would break
	// the lockstep its certificates assume. Reads never bump it.
	epoch uint64

	// eraseUndo snapshots the durable state each claimed erase destroys,
	// until the erase's array operation has verifiably started. The
	// functional reset applies at claim time (later claims against the
	// block need the in-order pointer reset), but physically the block
	// still holds its data until the array operation begins — a power cut
	// before that start means the erase never happened, and PowerLoss
	// restores the snapshot so data still being migrated off the block
	// survives the cut. Records are pruned once the dispatch clock passes
	// their start (from then on any cut catches the erase mid-operation,
	// which the model resolves as completed), and the page buffers a
	// tracked flash's record holds go to the staging pool (ReleaseStagingBuf:
	// a pinned one becomes an orphan). eraseUndoPool
	// recycles pruned records so the steady-state erase path stays
	// allocation-free.
	// undoLow is at most the earliest start among the journaled records
	// (sim.MaxTime with none journaled), so a prune whose dispatch clock is
	// below it has nothing to drop and returns without a scan: in a GC
	// storm the clock stands still while the journal grows.
	eraseUndo     []*eraseUndoRec
	eraseUndoPool []*eraseUndoRec
	undoLow       sim.Time

	// inFlight journals the programs whose array operation may still
	// complete after a power cut. inFlightCut is the latest prune time
	// (BeginPlan on an engine, PruneEraseUndo): no cut lands before it, so an
	// entry that completed by then is dead. The journal drops its dead
	// entries at each chunk boundary of its appends, so a plan's prune costs
	// one store, and PruneEraseUndo drops them at once.
	inFlight    progJournal
	inFlightCut sim.Time
}

// Options configures optional Flash behavior.
type Options struct {
	// TrackData keeps real page contents so reads return the bytes last
	// programmed. Tests and data-integrity checks enable it; large
	// performance sweeps leave it off to bound memory.
	TrackData bool
	// Seed drives the ISPP jitter stream.
	Seed uint64
	// Faults configures deterministic fault injection. The zero value
	// disables it.
	Faults FaultConfig
}

// New constructs a Flash from a validated geometry, timing and power model.
func New(geo Geometry, tim Timing, pow Power, cell CellType, opt Options) (*Flash, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := tim.Validate(); err != nil {
		return nil, err
	}
	if cell.LatencyClasses() == 0 {
		return nil, fmt.Errorf("nand: invalid cell type %v", cell)
	}
	if err := opt.Faults.Validate(); err != nil {
		return nil, err
	}
	if n := geo.TotalPages(); n > math.MaxInt32 {
		return nil, fmt.Errorf("nand: geometry has %d physical pages, more than the %d 32-bit OOB tags can name", n, math.MaxInt32)
	}
	f := &Flash{
		geo:       geo,
		tim:       tim,
		pow:       pow,
		cell:      cell,
		xferPage:  tim.XferTime(geo.PageSize),
		readLat:   classLatencies(cell.LatencyClasses(), tim.ReadFast, tim.ReadSlow),
		progLat:   classLatencies(cell.LatencyClasses(), tim.ProgFast, tim.ProgSlow),
		trackData: opt.TrackData,
		rng:       sim.NewRNG(opt.Seed ^ 0xa3b1), // decorrelate from other consumers of the same seed
	}
	f.progSec = make([]float64, len(f.progLat))
	for i, d := range f.progLat {
		f.progSec[i] = d.Seconds()
	}
	if opt.Faults.Enabled() {
		f.faults = newFaultModel(opt.Faults, tim)
	}
	f.channels = make([]*sim.Resource, geo.Channels)
	for i := range f.channels {
		f.channels[i] = sim.NewResource(fmt.Sprintf("nand.ch%d", i))
	}
	f.dies = make([]*sim.Resource, geo.TotalDies())
	for i := range f.dies {
		f.dies[i] = sim.NewResource(fmt.Sprintf("nand.die%d", i))
	}
	f.blocks = make([]blockState, geo.TotalBlocks())
	f.oob = make([]pageOOB, geo.TotalPages()) // all erased: the zero stamp
	f.planes = int64(geo.TotalPlanes())
	f.undoLow = sim.MaxTime
	f.inFlight.spare = []*progChunk{new(progChunk)} // the journal's floor
	f.chStats = make([]Stats, geo.Channels)
	f.chEnergy = make([]float64, geo.Channels)
	f.pagesPerC = geo.TotalPages() / int64(geo.Channels)
	f.plan.f = f
	if opt.TrackData {
		f.pins = make(map[*byte]pin)
		f.sums = make([]uint64, geo.TotalPages())
		f.data = make([]*pageArena, geo.Channels)
		for ch := range f.data {
			f.data[ch] = newPageArena(f.pagesPerC, geo.PageSize)
		}
	}
	return f, nil
}

// chanLocal converts a global physical page number to its channel-local
// arena index.
func (f *Flash) chanLocal(pageIdx int64) int64 { return pageIdx % f.pagesPerC }

// slotOfDie returns the metadata slot of the page at a, whose die index is
// di (see the package comment).
func (f *Flash) slotOfDie(di int, a *Address) int64 {
	return (int64(a.Block)*int64(f.geo.PagesPerBlock)+int64(a.Page))*f.planes + int64(di*f.geo.PlanesPerDie+a.Plane)
}

// slot returns the metadata slot of the page at a.
func (f *Flash) slot(a *Address) int64 { return f.slotOfDie(f.geo.dieOf(a), a) }

// blockSlot returns the slot of page 0 of the block at global index bi; page
// pg of the block is f.planes × pg slots further on.
func (f *Flash) blockSlot(bi int) int64 {
	bpp := f.geo.BlocksPerPlane
	return int64(bi%bpp)*int64(f.geo.PagesPerBlock)*f.planes + int64(bi/bpp)
}

// slotOfPage returns the slot of global physical page pageIdx.
func (f *Flash) slotOfPage(pageIdx int64) int64 {
	ppb := int64(f.geo.PagesPerBlock)
	return f.blockSlot(int(pageIdx/ppb)) + pageIdx%ppb*f.planes
}

// pageOfSlot is the inverse of slotOfPage.
func (f *Flash) pageOfSlot(s int64) int64 {
	ppb := int64(f.geo.PagesPerBlock)
	plane, rest := s%f.planes, s/f.planes
	return (plane*int64(f.geo.BlocksPerPlane)+rest/ppb)*ppb + rest%ppb
}

// TrackData reports whether the flash stores real page contents.
func (f *Flash) TrackData() bool { return f.trackData }

// StateEpoch returns the functional block-state epoch: a counter bumped by
// every program and erase at issue time, on every path. Two equal readings
// with no plan execution in between prove no block state changed — the
// staleness check behind fil's certified-plan fast path.
func (f *Flash) StateEpoch() uint64 { return f.epoch }

// Geometry returns the physical organization.
func (f *Flash) Geometry() Geometry { return f.geo }

// Timing returns the timing model.
func (f *Flash) Timing() Timing { return f.tim }

// Stats returns the activity counters, merged over the per-channel
// accumulators in channel order.
func (f *Flash) Stats() Stats {
	var s Stats
	for i := range f.chStats {
		c := &f.chStats[i]
		s.Reads += c.Reads
		s.Programs += c.Programs
		s.Erases += c.Erases
		s.BytesRead += c.BytesRead
		s.BytesWritten += c.BytesWritten
		s.MultiPlaneOps += c.MultiPlaneOps
	}
	return s
}

// PayloadBytes returns the tracked payload bytes the flash has copied and
// zeroed: a read's page delivered into the caller's buffer and zero-padded
// (copyOut, PagePayload included) and a program's payload copied into the
// staging buffer that becomes its page. A timing-only flash moves none, and
// restoring an image counts nothing.
func (f *Flash) PayloadBytes() (copied, zeroed uint64) { return f.copied, f.zeroed }

// countPayload records n payload bytes copied into a span of span bytes
// whose rest was zeroed.
func (f *Flash) countPayload(n, span int) {
	f.copied += uint64(n)
	f.zeroed += uint64(span - n)
}

// ChannelStats returns channel ch's activity counters.
func (f *Flash) ChannelStats(ch int) Stats { return f.chStats[ch] }

// EnergyJoules returns dynamic energy consumed so far (excluding leakage),
// merged over the per-channel accumulators in channel order so the
// floating-point sum is identical at any dispatch parallelism.
func (f *Flash) EnergyJoules() float64 {
	var e float64
	for _, v := range f.chEnergy {
		e += v
	}
	return e
}

// TotalEnergyJoules returns dynamic plus leakage energy over the elapsed
// simulated time.
func (f *Flash) TotalEnergyJoules(elapsed sim.Duration) float64 {
	return f.EnergyJoules() + f.pow.LeakageWPerDie*float64(f.geo.TotalDies())*elapsed.Seconds()
}

// EraseCount returns the erase count of the block containing a.
func (f *Flash) EraseCount(a Address) uint32 {
	return f.blocks[f.geo.BlockIndex(a)].eraseCount
}

// pageClass returns the latency class of a page within its block: pages are
// interleaved across classes the way LSB/CSB/MSB pages share wordlines.
func (f *Flash) pageClass(page int) int {
	return page % f.cell.LatencyClasses()
}

// readLatency returns tR for the page, interpolating between fast and slow
// classes.
func (f *Flash) readLatency(page int) sim.Duration {
	return f.readLat[f.pageClass(page)]
}

// progLatency returns tPROG for the page with ISPP jitter applied.
func (f *Flash) progLatency(page int) sim.Duration {
	class := f.pageClass(page)
	if f.tim.ISPPJitter == 0 {
		return f.progLat[class]
	}
	// ISPP: the number of program pulses varies with cell condition, so the
	// latency jitters around its class nominal.
	factor := 1 + f.rng.Range(-f.tim.ISPPJitter, f.tim.ISPPJitter)
	return sim.FromSeconds(f.progSec[class] * factor)
}

// classLatencies returns the nominal latency of every page class, spread
// evenly from fast (class 0) to slow (the last).
func classLatencies(classes int, fast, slow sim.Duration) []sim.Duration {
	lat := make([]sim.Duration, classes)
	lat[0] = fast
	for cl := 1; cl < classes; cl++ {
		span := float64(slow-fast) / float64(classes-1)
		lat[cl] = fast + sim.Duration(span*float64(cl))
	}
	return lat
}

// CheckRead reports the error a read of addr would fail with (address out
// of range, page unwritten), without claiming resources or scheduling
// anything. Callers batching staged reads validate every address first so
// a mid-batch failure leaves nothing claimed.
func (f *Flash) CheckRead(addr *Address) error {
	if err := f.geo.CheckAddress(*addr); err != nil {
		return err
	}
	if !f.oob[f.slot(addr)].written() {
		return fmt.Errorf("%w %v", ErrUnwritten, *addr)
	}
	return nil
}

// claimRead reserves the read's three phases: the command/address phase
// occupies the channel briefly, then the die runs the array read, then the
// data streams back over the channel. extra stretches the die phase with
// the read-retry ladder's cost (zero when the first rung succeeded). Shared
// by ReadDeferredAddr and PlanBatch.ReadAddr so the paths can never diverge
// in timing.
// di is addr's die index (the caller computed it once for the whole op).
func (f *Flash) claimRead(now sim.Time, addr *Address, di int, extra sim.Duration) (cmdStart, ready, done sim.Time) {
	ch := f.channels[addr.Channel]
	die := f.dies[di]
	cmdStart, cmdEnd := ch.Claim(now, f.tim.CmdCycles)
	_, ready = die.Claim(cmdEnd, f.readLatency(addr.Page)+extra)
	_, done = ch.Claim(ready, f.xferPage)
	return cmdStart, ready, done
}

// accountRead charges one page read to the channel's counters and energy.
func (f *Flash) accountRead(channel int) {
	st := &f.chStats[channel]
	st.Reads++
	st.BytesRead += uint64(f.geo.PageSize)
	f.chEnergy[channel] += f.pow.ReadEnergyJ + f.pow.XferEnergyJPerByte*float64(f.geo.PageSize)
}

// copyOut moves tracked page contents into dst (zero-padding past what was
// stored), a no-op when data tracking is off or dst is nil. Every program
// lands its bytes when it is issued, so the arena holds exactly what the
// transactions issued so far left.
func (f *Flash) copyOut(pageIdx int64, dst []byte) {
	if !f.trackData || dst == nil {
		return
	}
	n := copy(dst, f.data[int(pageIdx/f.pagesPerC)].get(f.chanLocal(pageIdx)))
	end := min(len(dst), f.geo.PageSize)
	clear(dst[n:end])
	f.countPayload(n, end)
}

// ReadDeferredAddr performs a page read with the timing of PlanBatch.ReadAddr,
// delivering the page bytes into dst at issue (exactly what ReadAddr would
// deliver) and charging the channel's counters and energy at issue too: it
// schedules nothing. The bytes a read returns are fixed when it is issued:
// the array read latches its data before any later erase or program can
// touch the block (the die resource serializes them). Because dst is
// complete when this call returns, a continuation that reads it — the
// core's fill publish — depends on no other event.
//
// There is no validation and no fault draw here. The caller either ran both
// through ProbeReadExtra and passes the drawn retry cost in extra — the
// probe's draw is THE draw, so the ladder is drawn and charged once per
// read — or holds a certificate that the address is in range and
// written (ftl.ReadCert) with read-fault draws off (ReadFaultsArmed false),
// and passes zero. The address travels by pointer (see dieOf); *addr is not
// retained.
func (f *Flash) ReadDeferredAddr(now sim.Time, addr *Address, dst []byte, extra sim.Duration) Result {
	di := f.geo.dieOf(addr)
	cmdStart, ready, done := f.claimRead(now, addr, di, extra)
	f.copyOut(f.geo.pageOfDie(di, addr), dst)
	f.accountRead(addr.Channel)
	return Result{Start: cmdStart, Ready: ready, Done: done}
}

// ReadDeferredEagerTrusted is the certified form of ReadDeferredAddr (no
// drawn retry cost) with the address by value. The engine and domain are
// unused; bench/replay.go calls this signature.
func (f *Flash) ReadDeferredEagerTrusted(_ *sim.Engine, _ sim.DomainID, now sim.Time, addr Address, dst []byte) Result {
	return f.ReadDeferredAddr(now, &addr, dst, 0)
}

// StagingBuf hands out a page-size staging buffer from the pool, or a new
// one when the pool is empty. A program that copies its payload stages it in
// one; a caller outside the package borrows one for page bytes a later
// program of the same plan will carry on — a plan pre-read fills it and the
// rewrite hands it to PlanBatch.ProgramAddr (staged), which installs that
// very buffer instead of a copy of it. A borrowed buffer no program took goes
// back through ReleaseStagingBuf before the plan's execution returns.
//
// The pool is fed by what programs displace and erases give up: an install
// hands back the buffer its page held, and an erase's undo record hands back
// the buffers it took from its block once the erase can no longer be undone.
// So the buffers of erased pages stage the programs that refill them, and
// the buffers in existence are bounded by the arena plus what the undo
// journal, the pins and one plan hold at once. The contents are whatever the
// last user left: every taker overwrites or pads the whole page before
// anything reads it. A pinned buffer is never pooled (see Pin).
func (f *Flash) StagingBuf() []byte {
	if n := len(f.pageBufs); n > 0 {
		buf := f.pageBufs[n-1]
		f.pageBufs = f.pageBufs[:n-1]
		return buf
	}
	return make([]byte, f.geo.PageSize)
}

// ReleaseStagingBuf returns a page buffer nothing holds to the pool. It is
// the only way into the pool: a pinned buffer is kept aside instead, as an
// orphan, until its last Unpin pools it.
func (f *Flash) ReleaseStagingBuf(buf []byte) {
	if len(f.pins) > 0 {
		if p, ok := f.pins[&buf[0]]; ok {
			p.orphan = buf
			f.pins[&buf[0]] = p
			return
		}
	}
	f.pageBufs = append(f.pageBufs, buf)
}

// pin is one pinned buffer's record: how many pins it has, and the buffer
// itself once nothing but its pins holds it (an orphan).
type pin struct {
	n      int
	orphan []byte
}

// Pin returns the buffer holding the tracked contents of the page at addr
// and pins it: the buffer's bytes do not change until a matching Unpin,
// whatever programs, erases, undo pruning or restores do to the page
// meanwhile, so a pin taken right after a read is issued holds exactly the
// bytes that read delivers, and the holder may read them any time before it
// unpins. The buffer stays where it is (no copy); if the page gives it up
// while pinned, the last Unpin pools it. Pin returns nil, and needs no
// Unpin, when the page holds no tracked bytes (it reads as zeroes) or data
// tracking is off. A power cut drops every pin (PowerLoss).
func (f *Flash) Pin(addr Address) []byte {
	if !f.trackData {
		return nil
	}
	pageIdx := f.geo.PageIndex(addr)
	buf := f.data[int(pageIdx/f.pagesPerC)].get(f.chanLocal(pageIdx))
	if buf == nil {
		return nil
	}
	p := f.pins[&buf[0]]
	p.n++
	f.pins[&buf[0]] = p
	f.pinsTaken++
	return buf
}

// PinsTaken returns how many pins Pin has taken: page reads whose bytes a
// holder reads in place instead of a copy.
func (f *Flash) PinsTaken() uint64 { return f.pinsTaken }

// Unpin releases one pin Pin took on buf (nil is a no-op). The last pin on
// an orphan pools it; a buffer the arena or an undo record still holds is
// only forgotten. Unpinning a buffer that holds no pin panics: the caller
// released it twice.
func (f *Flash) Unpin(buf []byte) {
	if buf == nil {
		return
	}
	k := &buf[0]
	p, ok := f.pins[k]
	if !ok {
		panic("nand: Unpin of a buffer that holds no pin")
	}
	if p.n--; p.n > 0 {
		f.pins[k] = p
		return
	}
	delete(f.pins, k)
	if p.orphan != nil {
		f.pageBufs = append(f.pageBufs, p.orphan)
	}
}

// dropPins forgets every pin and pools every orphan.
func (f *Flash) dropPins() {
	for k, p := range f.pins {
		if p.orphan != nil {
			f.pageBufs = append(f.pageBufs, p.orphan)
		}
		delete(f.pins, k)
	}
}

// Buffers counts the pinned page buffers, wherever they are, the orphans
// among them, and the pooled buffers. A timing-only flash has none.
func (f *Flash) Buffers() (pinned, orphans, pooled int) {
	for _, p := range f.pins {
		if p.orphan != nil {
			orphans++
		}
	}
	return len(f.pins), orphans, len(f.pageBufs)
}

// install makes buf the contents of page pageIdx and returns the buffer the
// page held before, if any, to the pool.
func (f *Flash) install(pageIdx int64, buf []byte) {
	if old := f.data[int(pageIdx/f.pagesPerC)].install(f.chanLocal(pageIdx), buf); old != nil {
		f.ReleaseStagingBuf(old)
	}
}

// PlanBatch is the one way a flash transaction issues: ReadAddr, ProgramAddr
// and Erase claim the channel and die, apply the functional state
// transition, draw the injected fault, charge the channel's counters and
// energy and, on a tracked flash, move the page bytes, all at issue — a
// plan schedules nothing. Opened on an engine, a batch journals each erase's
// undo record until the engine's dispatch clock passes the erase's start,
// because a power cut may still land before it; opened without one (a nil
// engine), an erase is committed when it is claimed. Obtain with
// Flash.BeginPlan and end with Commit. Only one plan may be open per
// Flash at a time — the FIL's serial plan execution guarantees it.
type PlanBatch struct {
	f    *Flash
	e    *sim.Engine
	open bool
}

// BeginPlan opens the batching context for one plan's flash transactions on
// engine e, or engine-less with a nil e. On an engine it first prunes the
// program journal at the engine's dispatch clock, the earliest time a cut
// can still land (the journal drops what is dead at its next chunk
// boundary). The channel domains are unused: a plan schedules nothing
// (bench/replay.go calls this signature).
func (f *Flash) BeginPlan(e *sim.Engine, _ []sim.DomainID) *PlanBatch {
	b := &f.plan
	if b.open {
		panic("nand: BeginPlan with a plan already open")
	}
	b.e, b.open = e, true
	if e != nil {
		f.inFlightCut = max(f.inFlightCut, e.Now())
	}
	return b
}

// ReadAddr performs a page read, delivering the page bytes into dst and
// charging the channel's counters and energy at issue (a dependent rewrite
// consumes the bytes within the same serial call). dst is not retained.
// There is no structural precheck (address bounds, page written): the
// plan's issuer proved both before the first op — a certified plan's FTL at
// construction time against a flash it is in lockstep with, a walked plan's
// executor in its walk (fil's prevalidation), a single raw read with
// Flash.CheckRead. Injected fault draws still run
// — a certificate trusts the model, not the silicon: the retry ladder's
// latency stretches the claim, an uncorrectable draw returns with nothing
// claimed. The address travels by reference: the per-op caller fills one
// Address in place field by field, and a 48-byte struct copied right after
// narrow stores fails store-to-load forwarding — so the pointer goes all the
// way to the claim. *addr is not retained.
func (b *PlanBatch) ReadAddr(now sim.Time, addr *Address, dst []byte) (Result, error) {
	f := b.f
	var extra sim.Duration
	if f.faults != nil {
		var err error
		if extra, err = f.readFaultExtra(*addr); err != nil {
			return Result{}, err
		}
	}
	di := f.geo.dieOf(addr)
	cmdStart, ready, done := f.claimRead(now, addr, di, extra)
	if f.trackData && dst != nil {
		f.copyOut(f.geo.pageOfDie(di, addr), dst)
	}
	f.accountRead(addr.Channel)
	return Result{Start: cmdStart, Ready: ready, Done: done}, nil
}

// ReadTrusted is ReadAddr with the address by value.
func (b *PlanBatch) ReadTrusted(now sim.Time, addr Address, dst []byte) (Result, error) {
	return b.ReadAddr(now, &addr, dst)
}

// ProgramAddr performs a page program — its claims, its functional
// block-state transition, its counters and energy — and on a tracked flash
// lands the page bytes, all at issue: the payload is copied into a staging
// buffer and zero-padded (the caller's buffer is not retained), the staging
// buffer becomes the page, and the buffer the page held before goes to the
// pool. tag is the OOB logical tag: the FTL-defined identity of the logical
// sub-page this program stores (fil passes the forward-map index), stamped
// into the page's out-of-band metadata so mount-time recovery can rebuild
// the mapping from flash alone. Raw and untagged programs pass -1. The stamp
// holds 32 bits: fil's tags are forward-map indices, which ftl.New bounds to
// int32, or the parity tag. Like ReadAddr there is no structural precheck
// (address bounds, in-order program pointer) — the certificate or the
// executor's walk vouches — while injected fault draws still run, and the
// address travels by reference.
//
// When staged is set there is no staging copy either: data is then a
// whole-page Flash.StagingBuf the caller filled, and the flash makes that
// very buffer the page, checksummed. A staged buffer is the flash's from
// this call on, whatever it returns.
func (b *PlanBatch) ProgramAddr(now sim.Time, addr *Address, data []byte, staged bool, tag int64) (Result, error) {
	f := b.f
	if f.faults != nil {
		if err := f.drawProgramFault(*addr); err != nil {
			if staged {
				f.ReleaseStagingBuf(data)
			}
			return Result{}, err
		}
	}
	di := f.geo.dieOf(addr)
	xferStart, done, slot := f.claimProgram(now, addr, di, tag)
	f.accountProgram(addr.Channel)
	switch {
	case !f.trackData || data == nil:
		if staged {
			f.ReleaseStagingBuf(data)
		}
	case staged:
		f.sums[slot] = pageSum(data)
		f.install(f.geo.pageOfDie(di, addr), data)
	default:
		buf := f.StagingBuf()
		n := copy(buf, data)
		clear(buf[n:])
		f.countPayload(n, len(buf))
		f.sums[slot] = pageSum(buf)
		f.install(f.geo.pageOfDie(di, addr), buf)
	}
	return Result{Start: xferStart, Ready: done, Done: done}, nil
}

// ProgramTaggedTrusted is ProgramAddr with the address by value and a
// payload the flash copies.
func (b *PlanBatch) ProgramTaggedTrusted(now sim.Time, addr Address, data []byte, tag int64) (Result, error) {
	return b.ProgramAddr(now, &addr, data, false, tag)
}

// Erase erases the block containing addr (its Page field is ignored) with
// its timing and functional reset, charging the channel's counters and
// energy and, on a tracked flash, taking the block's page buffers into its
// undo record, all at issue. Like ReadAddr there is no structural precheck:
// the caller probes the erase first (Flash.ProbeErase checks the address
// and draws the fault), so only the injected fault draw runs here. In-flight reads are immune: they delivered
// their bytes at their own issue. Engine-less, the erase is committed at
// claim: its undo record is never restored, and its buffers go straight to
// the pool.
//
// On an engine the erase journals its undo record, and first prunes the
// records whose array operation started by the engine's dispatch clock
// (b.e.Now()), not by this erase's issue time: a cut may still land between
// the two, and it needs those records. Pruning therefore relies on the
// caller's dispatch clock advancing; a caller that issues outside a running
// engine prunes with Flash.PruneEraseUndo.
func (b *PlanBatch) Erase(now sim.Time, addr Address) (Result, error) {
	f := b.f
	addr.Page = 0
	if err := f.drawEraseFault(addr); err != nil {
		return Result{}, err
	}
	di := f.geo.dieOf(&addr)
	if b.e != nil {
		f.pruneEraseUndo(b.e.Now())
	}
	cmdStart, done, undo := f.claimErase(now, &addr, di)
	f.accountErase(addr.Channel)
	if b.e == nil {
		f.commitEraseUndo(undo)
	}
	return Result{Start: cmdStart, Ready: done, Done: done}, nil
}

// Commit closes the plan context. Every transaction took effect when it was
// issued, so there is nothing left to land.
func (b *PlanBatch) Commit() {
	b.e, b.open = nil, false
}

// Abort is Commit under the name a failure path calls it by (bench/replay.go
// does): a plan abandoned for a structural error issued nothing, and one
// stopped by an injected fault keeps the transactions it issued.
func (b *PlanBatch) Abort() { b.Commit() }

// CheckErase reports the error an erase of the block containing addr would
// fail with, without claiming resources or mutating anything.
func (f *Flash) CheckErase(addr Address) error {
	addr.Page = 0
	return f.geo.CheckAddress(addr)
}

// accountProgram charges one page program to the channel's counters and
// energy. Called exactly once per program, at issue (PlanBatch.ProgramAddr).
func (f *Flash) accountProgram(channel int) {
	st := &f.chStats[channel]
	st.Programs++
	st.BytesWritten += uint64(f.geo.PageSize)
	f.chEnergy[channel] += f.pow.ProgEnergyJ + f.pow.XferEnergyJPerByte*float64(f.geo.PageSize)
}

// accountErase charges one block erase to the channel's counters and
// energy. Called exactly once per erase, at issue (PlanBatch.Erase).
func (f *Flash) accountErase(channel int) {
	f.chStats[channel].Erases++
	f.chEnergy[channel] += f.pow.EraseEnergyJ
}

// claimProgram reserves a program's two phases — the data streams over the
// channel into the die's register, then the die programs the array — and
// applies the functional block-state transition (written flag, in-order
// pointer), which later issues read. It also stamps the page's OOB
// metadata, in the same store as the written flag: the caller's logical tag
// (-1 for raw untagged programs) and the next device-wide write sequence
// number; the completion time the power-loss cut tests against goes to the
// program journal. di is addr's die index; the page's slot is returned
// for the caller's checksum.
func (f *Flash) claimProgram(now sim.Time, addr *Address, di int, tag int64) (xferStart, done sim.Time, slot int64) {
	ch := f.channels[addr.Channel]
	die := f.dies[di]
	xferStart, xferEnd := ch.Claim(now, f.tim.CmdCycles+f.xferPage)
	_, done = die.Claim(xferEnd, f.progLatency(addr.Page))
	f.blocks[f.geo.blockOfDie(di, addr)].nextPage++
	f.epoch++
	f.progSeq++
	slot = f.slotOfDie(di, addr)
	f.oob[slot] = pageOOB{seqLo: uint32(f.progSeq), seqHi: uint32(f.progSeq>>32) | hiGood | hiWritten, notFI: ^int32(tag)}
	if f.stripes != nil {
		f.stripes[slot] = 0 // a parity program's caller stamps its mask next
	}
	f.journal(progEntry{doneAt: done, slot: int32(slot), seq: uint32(f.progSeq)})
	if f.sums != nil {
		f.sums[slot] = 0 // the caller stamps the payload's, if it has one
	}
	return xferStart, done, slot
}

// eraseUndoRec snapshots the block state one claimed erase destroyed, so a
// power cut before the erase's array operation started can put it back. It
// copies the block's stamps — 12 bytes a page, written flags included, plus
// 8 for the checksums on a tracked flash (sums is nil on a timing-only one)
// and 4 for the stripe masks once the flash holds a stripe table (stripes
// stays nil until then; a record's own copy is what the image and an undo
// read, since the erase zeroed the live table's) — and on a tracked
// flash holds the page buffers the erase took out of the arena. The pool
// keeps every record a burst of erases needed, so the per-page cost is paid
// once per block in flight.
type eraseUndoRec struct {
	bi         int
	start      sim.Time // array-operation start on the die
	eraseCount uint32
	nextPage   int32
	oob        []pageOOB
	sums       []uint64
	stripes    stripeTab
	// bufs holds, by page, the buffer the erase took out of the arena, nil
	// for a page that held nothing (tracked flash only). The record owns
	// them until it is restored or recycled.
	bufs [][]byte
}

// pruneEraseUndo drops undo records whose array operation has started by
// the given engine dispatch time: any later power cut catches those erases
// mid-operation (resolved as completed), so the snapshots are dead weight.
// Below the low-water mark no record qualifies, so there is nothing to scan.
func (f *Flash) pruneEraseUndo(dispatch sim.Time) {
	if dispatch < f.undoLow {
		return
	}
	kept := f.eraseUndo[:0]
	low := sim.MaxTime
	for _, u := range f.eraseUndo {
		if u.start <= dispatch {
			f.recycleEraseUndo(u)
			continue
		}
		kept = append(kept, u)
		low = min(low, u.start)
	}
	f.eraseUndo = kept
	f.undoLow = low
}

// PruneEraseUndo drops undo records whose array operation has started by
// the given committed simulation time, and journaled programs that completed
// by it: the caller asserts no future power cut can land before it (e.g.
// core's batched submit after a window drain, or a drained system, where the
// host clock is the earliest possible cut). The evented path prunes on
// dispatch instead; this entry point exists for callers that issue outside a
// running engine, whose dispatch clock would otherwise never advance past
// the records.
func (f *Flash) PruneEraseUndo(committed sim.Time) {
	f.pruneEraseUndo(committed)
	f.pruneInFlight(committed)
}

// acquireEraseUndo hands out a pooled undo record with its snapshot slices
// sized for one block.
func (f *Flash) acquireEraseUndo() *eraseUndoRec {
	if n := len(f.eraseUndoPool); n > 0 {
		u := f.eraseUndoPool[n-1]
		f.eraseUndoPool = f.eraseUndoPool[:n-1]
		return u
	}
	u := &eraseUndoRec{oob: make([]pageOOB, f.geo.PagesPerBlock)}
	if f.trackData {
		u.sums = make([]uint64, f.geo.PagesPerBlock)
		u.bufs = make([][]byte, f.geo.PagesPerBlock)
	}
	return u
}

// recycleEraseUndo pools a record that will not be restored and hands the
// page buffers it held to the staging pool.
func (f *Flash) recycleEraseUndo(u *eraseUndoRec) {
	for i, buf := range u.bufs {
		if buf != nil {
			f.ReleaseStagingBuf(buf)
			u.bufs[i] = nil
		}
	}
	f.eraseUndoPool = append(f.eraseUndoPool, u)
}

// commitEraseUndo commits an erase at claim time — an engine-less batch: its
// snapshot must never be restored — by recycling its record, the one
// claimErase journaled last.
func (f *Flash) commitEraseUndo(u *eraseUndoRec) {
	f.eraseUndo = f.eraseUndo[:len(f.eraseUndo)-1]
	f.recycleEraseUndo(u)
}

// claimErase reserves an erase's phases and applies the functional block
// reset (erase count, in-order pointer, the pages' stamps, written flags
// included) for PlanBatch.Erase, taking the block's page buffers out of the
// arena on a tracked flash. The
// returned undo record holds the destroyed state; an engine-less batch
// commits it at once, an engine's leaves it journaled until the array
// operation's start time passes.
func (f *Flash) claimErase(now sim.Time, addr *Address, di int) (cmdStart, done sim.Time, undo *eraseUndoRec) {
	bi := f.geo.blockOfDie(di, addr)
	blk := &f.blocks[bi]
	ch := f.channels[addr.Channel]
	die := f.dies[di]
	cmdStart, cmdEnd := ch.Claim(now, f.tim.CmdCycles)
	opStart, done := die.Claim(cmdEnd, f.tim.Erase)
	undo = f.acquireEraseUndo()
	undo.bi = bi
	undo.start = opStart
	undo.eraseCount = blk.eraseCount
	undo.nextPage = blk.nextPage
	s0 := f.blockSlot(bi)
	for pg, s := 0, s0; pg < len(undo.oob); pg, s = pg+1, s+f.planes {
		undo.oob[pg] = f.oob[s]
		f.oob[s] = pageOOB{}
	}
	if f.stripes != nil {
		if undo.stripes == nil {
			undo.stripes = make(stripeTab, len(undo.oob))
		}
		for pg, s := 0, s0; pg < len(undo.stripes); pg, s = pg+1, s+f.planes {
			undo.stripes[pg] = f.stripes[s]
			f.stripes[s] = 0
		}
	} else {
		undo.stripes = nil // pooled from an image that gave it masks: none to copy here
	}
	f.eraseUndo = append(f.eraseUndo, undo)
	f.undoLow = min(f.undoLow, opStart)
	blk.eraseCount++
	blk.nextPage = 0
	if f.trackData {
		for pg, s := 0, s0; pg < len(undo.sums); pg, s = pg+1, s+f.planes {
			undo.sums[pg] = f.sums[s]
			f.sums[s] = 0
		}
		arena, local := f.data[addr.Channel], f.chanLocal(int64(bi)*int64(f.geo.PagesPerBlock))
		for pg := range undo.bufs {
			undo.bufs[pg] = arena.take(local + int64(pg))
		}
	}
	f.epoch++
	return cmdStart, done, undo
}

// PageWritten reports whether the page at addr currently holds data.
func (f *Flash) PageWritten(addr Address) bool {
	return f.oob[f.slot(&addr)].written()
}

// PagePayload copies the tracked contents of the page at addr into dst
// (zero-padded past what was stored), with no timing, accounting or fault
// draw — firmware-internal data movement, not a flash transaction. RAIN
// parity computation XORs stripe members through this (each
// member was already read or programmed by the surrounding plan, which is
// where the timing lives). No-op when data tracking is off or dst is nil.
func (f *Flash) PagePayload(addr Address, dst []byte) {
	f.copyOut(f.geo.PageIndex(addr), dst)
}

// NextProgramPage returns the next in-order programmable page of the block
// containing addr, or PagesPerBlock if the block is full.
func (f *Flash) NextProgramPage(addr Address) int {
	return int(f.blocks[f.geo.BlockIndex(addr)].nextPage)
}

// FreeAt returns the time at which every channel and die becomes idle —
// the backend quiesce point after outstanding programs/erases drain.
func (f *Flash) FreeAt() sim.Time {
	var t sim.Time
	for _, ch := range f.channels {
		if ch.FreeAt() > t {
			t = ch.FreeAt()
		}
	}
	for _, d := range f.dies {
		if d.FreeAt() > t {
			t = d.FreeAt()
		}
	}
	return t
}
