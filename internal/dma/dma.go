// Package dma implements Amber's data transfer emulation (§III-B): the
// host-side DMA engine that moves real request payloads between the host's
// system memory and the SSD's internal DRAM, driven by the pointer-list
// structure each protocol defines — PRDT for SATA, UPIU+PRDT for UFS, PRP
// lists (or SGL) for NVMe/OCSSD.
//
// The engine supports the two CPU-model behaviors the paper describes: in
// Timing mode every descriptor batch is transferred as its own link and
// memory transaction (fine-grained arbitration, as with gem5's timing
// CPUs); in Functional mode the whole request aggregates into one transfer
// (as with AtomicSimpleCPU).
//
// Real controllers do not arbitrate per host page: adjacent pointer-list
// entries that are physically contiguous (and move in the same direction)
// coalesce into one DMA descriptor per arbitration round. Timing mode
// models that by batching the entries of a contiguous list
// (PointerList.Contig) into single link/memory claims, which also
// collapses the event count large blocks generate. Lists with unknown
// physical layout keep the historical per-entry arbitration exactly.
//
// Exactly, but not entry by entry: the whole-page entries of such a list are
// k equal descriptors issued at one time, so host memory serves them back to
// back and they reach the link one memory time apart — two memory times
// under the h-type copy, whose second pass over host memory runs right
// after the first — so two sim.Resource.ClaimRun calls and the counters
// advanced by k make the claims the per-entry loop would, in O(1)
// (reference_test.go holds result, both timelines and Stats equal to that
// loop). The list's short last entry, if any, is one claim of each.
package dma

import (
	"fmt"

	"amber/internal/sim"
)

// Domain names the sim.Engine scheduling domain that labels
// payload-transfer stage boundaries: events whose time was produced by a
// DMA Transfer completion.
const Domain = "dma"

// ListKind identifies the pointer-list structure being walked.
type ListKind int

// Pointer-list kinds.
const (
	PRDT ListKind = iota + 1 // SATA physical region descriptor table
	UPIU                     // UFS transfer request PRDT
	PRP                      // NVMe physical region pages
	SGL                      // NVMe scatter-gather list
)

func (k ListKind) String() string {
	switch k {
	case PRDT:
		return "prdt"
	case UPIU:
		return "upiu"
	case PRP:
		return "prp"
	case SGL:
		return "sgl"
	default:
		return fmt.Sprintf("ListKind(%d)", int(k))
	}
}

// EntryBytes returns the descriptor size of one list entry, charged as
// link traffic when the device walks the list.
func (k ListKind) EntryBytes() int {
	switch k {
	case PRDT, UPIU:
		return 16
	case PRP:
		return 8
	case SGL:
		return 16
	default:
		return 16
	}
}

// Mode selects transfer granularity.
type Mode int

// Transfer modes.
const (
	// Timing transfers each pointer-list entry separately, arbitrating
	// memory and link per page — required under timing CPU models.
	Timing Mode = iota
	// Functional aggregates the request into a single transfer — the
	// functional (atomic) CPU behavior.
	Functional
)

func (m Mode) String() string {
	if m == Functional {
		return "functional"
	}
	return "timing"
}

// PointerList describes the system-memory pages of one request. Entries
// reference host page frames; Data optionally carries the real bytes
// (Amber's SSD emulation).
//
// Physical layout: Contig marks every referenced page physically
// contiguous (one run of frames). When it is not set the layout is unknown
// and the engine conservatively treats every entry as its own physical
// extent, which preserves the historical per-entry Timing-mode arbitration
// exactly.
type PointerList struct {
	Kind     ListKind
	PageSize int
	Length   int // total payload bytes
	Data     []byte
	Contig   bool
}

// Build constructs a pointer list for n bytes of payload over hostPageSize
// pages. data may be nil (timing-only run) or must be at least n bytes.
// The physical layout is left unknown (no descriptor batching).
func Build(kind ListKind, n, hostPageSize int, data []byte) (PointerList, error) {
	if n <= 0 || hostPageSize <= 0 {
		return PointerList{}, fmt.Errorf("dma: length and page size must be positive")
	}
	if data != nil && len(data) < n {
		return PointerList{}, fmt.Errorf("dma: data shorter than length (%d < %d)", len(data), n)
	}
	return PointerList{Kind: kind, PageSize: hostPageSize, Length: n, Data: data}, nil
}

// BuildContiguous is Build for a payload whose host pages are physically
// contiguous (a hugepage-backed or freshly allocated pinned buffer):
// Timing-mode transfers may coalesce adjacent entries into descriptor
// batches.
func BuildContiguous(kind ListKind, n, hostPageSize int, data []byte) (PointerList, error) {
	pl, err := Build(kind, n, hostPageSize, data)
	if err != nil {
		return PointerList{}, err
	}
	pl.Contig = true
	return pl, nil
}

// Entries returns the number of pointer-list entries (host pages spanned).
func (pl PointerList) Entries() int {
	return (pl.Length + pl.PageSize - 1) / pl.PageSize
}

// Stats aggregates DMA engine activity. Descriptors counts modeled
// arbitration rounds (one link + memory claim each, post-batching) while
// Entries counts pointer-list entries walked (pre-batching); the two
// differ exactly by how much Timing-mode coalescing collapsed contiguous
// runs, and Functional mode always aggregates a request into one
// descriptor.
type Stats struct {
	Descriptors     uint64 // arbitration rounds: one link+memory claim each
	Entries         uint64 // pointer-list entries covered by those rounds
	BytesMoved      uint64
	ListWalks       uint64
	DescriptorBytes uint64
}

// Engine is the DMA engine: it owns the link resource (shared with command
// traffic) and charges host-memory bandwidth per transfer.
type Engine struct {
	link      *sim.Resource
	linkBW    float64 // bytes/second
	hostMem   *sim.Resource
	hostMemBW float64
	mode      Mode
	hostCopy  bool // h-type: stage through host controller buffer (second copy)
	stats     Stats
}

// Config parameterizes an Engine.
type Config struct {
	Link               *sim.Resource
	LinkBytesPerSec    float64
	HostMem            *sim.Resource
	HostMemBytesPerSec float64
	Mode               Mode
	// HostControllerCopy enables the h-type double copy: the host
	// controller first copies pages from system memory into its own buffer
	// before the link transfer (§II-A).
	HostControllerCopy bool
}

// New constructs an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Link == nil || cfg.HostMem == nil {
		return nil, fmt.Errorf("dma: link and host memory resources are required")
	}
	if cfg.LinkBytesPerSec <= 0 || cfg.HostMemBytesPerSec <= 0 {
		return nil, fmt.Errorf("dma: bandwidths must be positive")
	}
	return &Engine{
		link:      cfg.Link,
		linkBW:    cfg.LinkBytesPerSec,
		hostMem:   cfg.HostMem,
		hostMemBW: cfg.HostMemBytesPerSec,
		mode:      cfg.Mode,
		hostCopy:  cfg.HostControllerCopy,
	}, nil
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Mode returns the transfer granularity mode.
func (e *Engine) Mode() Mode { return e.mode }

// WalkList charges the device-side fetch of the pointer list itself
// (descriptor traffic over the link) and returns its completion.
func (e *Engine) WalkList(now sim.Time, pl PointerList) sim.Time {
	bytes := int64(pl.Entries() * pl.Kind.EntryBytes())
	_, done := e.link.Claim(now, sim.TransferTime(bytes, e.linkBW))
	e.stats.ListWalks++
	e.stats.DescriptorBytes += uint64(bytes)
	return done
}

// Transfer moves the payload described by pl between host memory and the
// device, starting at now, and returns completion. toDevice is true for
// writes (host -> SSD). In Timing mode every descriptor batch claims host
// memory and the link once; a physically contiguous list is one batch (the
// whole call shares one direction), and a list with unknown layout
// degenerates to the per-entry arbitration of fine-grained timing CPUs.
// Functional mode performs one aggregate claim.
func (e *Engine) Transfer(now sim.Time, pl PointerList, toDevice bool) sim.Time {
	if pl.Length <= 0 {
		return now
	}
	move := func(start sim.Time, n, entries int) sim.Time {
		// Host memory access (read for writes, write for reads).
		memTime := sim.TransferTime(int64(n), e.hostMemBW)
		_, memDone := e.hostMem.Claim(start, memTime)
		if e.hostCopy {
			// h-type double copy: host controller stages the batch in its
			// buffer — a second pass over host memory.
			_, memDone = e.hostMem.Claim(memDone, memTime)
		}
		// Link transfer; direction does not change occupancy.
		_, linkDone := e.link.Claim(memDone, sim.TransferTime(int64(n), e.linkBW))
		if !toDevice {
			// Reads land in host memory after the link: claim is already
			// modeled above for simplicity of arbitration; order differs
			// but occupancy is identical.
			_ = linkDone
		}
		e.stats.Descriptors++
		e.stats.Entries += uint64(entries)
		e.stats.BytesMoved += uint64(n)
		return linkDone
	}

	entries := pl.Entries()
	if e.mode == Functional || pl.Contig {
		return move(now, pl.Length, entries)
	}
	done := now
	k := pl.Length / pl.PageSize
	if k > 0 {
		// The k whole-page entries as two runs (see the package comment):
		// host memory serves their passes back to back, one per entry or two
		// under the h-type copy, and an entry reaches the link when its last
		// pass ends.
		passes := 1
		if e.hostCopy {
			passes = 2
		}
		mem := sim.TransferTime(int64(pl.PageSize), e.hostMemBW)
		stride := sim.Duration(passes) * mem
		first := sim.MaxOf(now, e.hostMem.FreeAt()) + stride
		e.hostMem.ClaimRun(now, 0, mem, passes*k)
		done = e.link.ClaimRun(first, stride, sim.TransferTime(int64(pl.PageSize), e.linkBW), k)
		e.stats.Descriptors += uint64(k)
		e.stats.Entries += uint64(k)
		e.stats.BytesMoved += uint64(k * pl.PageSize)
	}
	if k < entries {
		// The short last entry starts as soon as the engine can issue it; the
		// shared resources serialize where physics requires.
		done = max(done, move(now, pl.Length-k*pl.PageSize, 1))
	}
	return done
}
