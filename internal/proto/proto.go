// Package proto models the storage interfaces and protocols Amber
// implements (§IV): SATA 3.0 (AHCI HBA, NCQ, FIS/PRDT), UFS 2.1 (UTP
// engine, UFSHCI, UPIU, M-PHY), NVMe 1.2.1 (SQ/CQ rich queues, doorbells,
// PRP/SGL, MSI-X) and OCSSD 2.0 (NVMe transport with physical addressing).
//
// Each protocol is described by a Params value capturing the properties the
// paper's evaluation turns on: the hardware queue limit (32-entry command
// lists for h-type vs 64K rich queues for s-type), link bandwidth, per-
// command controller latencies, whether data passes through a host
// controller buffer (the h-type double copy), whether completions
// serialize on a single I/O path, and the host-kernel and device-firmware
// instruction budgets of the submission and completion paths.
package proto

import (
	"fmt"

	"amber/internal/cpu"
	"amber/internal/sim"
)

// Kind identifies a storage interface protocol.
type Kind int

// Supported protocols.
const (
	SATA Kind = iota + 1
	UFS
	NVMe
	OCSSD
)

func (k Kind) String() string {
	switch k {
	case SATA:
		return "sata"
	case UFS:
		return "ufs"
	case NVMe:
		return "nvme"
	case OCSSD:
		return "ocssd"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsHType reports whether the protocol is hardware-driven storage (I/O
// controller hub with a host controller: SATA, UFS) as opposed to
// software-driven (memory controller hub over PCIe: NVMe, OCSSD).
func (k Kind) IsHType() bool { return k == SATA || k == UFS }

// Arbitration selects the HIL scheduling policy for s-type multi-queue
// protocols.
type Arbitration int

// Queue arbitration mechanisms (§III-B firmware stack).
const (
	FIFO Arbitration = iota // h-type single queue
	RoundRobin
	WeightedRoundRobin
)

func (a Arbitration) String() string {
	switch a {
	case RoundRobin:
		return "rr"
	case WeightedRoundRobin:
		return "wrr"
	default:
		return "fifo"
	}
}

// Params captures the performance-relevant properties of one protocol
// instance.
type Params struct {
	Kind Kind

	// QueueDepthLimit caps in-flight commands per queue (NCQ/UTRD list: 32;
	// NVMe: 65536).
	QueueDepthLimit int
	// MaxQueues is the number of I/O queues the protocol exposes.
	MaxQueues int
	// Arbitration is the device-side queue scheduling policy.
	Arbitration Arbitration

	// LinkBytesPerSec is the effective payload bandwidth of the physical
	// link (after encoding overhead).
	LinkBytesPerSec float64
	// CmdFetchBytes is the size of a command fetch (SQ entry, FIS, UTRD).
	CmdFetchBytes int
	// CompletionBytes is the completion record size (CQ entry, response
	// FIS/UPIU).
	CompletionBytes int

	// ControllerLatency is the fixed per-command device controller / PHY
	// crossing time.
	ControllerLatency sim.Duration
	// DoorbellLatency is the host MMIO write (or h-type register program)
	// reaching the device.
	DoorbellLatency sim.Duration
	// InterruptLatency is the MSI-X write or legacy interrupt delivery.
	InterruptLatency sim.Duration

	// HostControllerCopy marks h-type storage: payloads are staged through
	// the host controller's buffer (an extra host-memory copy per transfer)
	// and command/completion handling serializes on the controller.
	HostControllerCopy bool

	// SubmitInstr is the host-kernel instruction budget per submission
	// (driver + block layer glue, excluding the I/O scheduler, which the
	// host model owns).
	SubmitInstr uint64
	// CompleteInstr is the host ISR + completion path instruction budget.
	CompleteInstr uint64

	// ParseMix is the device firmware cost of unpacking one command.
	ParseMix cpu.InstrMix
	// QueueMix is the device firmware cost of queue/doorbell management
	// per command (the NVMe core rings on every doorbell — the 5.45x
	// instruction gap of Fig. 13c lives here).
	QueueMix cpu.InstrMix
	// CompleteMix is the device firmware cost of composing the completion.
	CompleteMix cpu.InstrMix
}

// Validate reports descriptive parameter errors.
func (p Params) Validate() error {
	switch {
	case p.Kind < SATA || p.Kind > OCSSD:
		return fmt.Errorf("proto: unknown kind %d", int(p.Kind))
	case p.QueueDepthLimit <= 0 || p.MaxQueues <= 0:
		return fmt.Errorf("proto: queue limits must be positive")
	case p.LinkBytesPerSec <= 0:
		return fmt.Errorf("proto: link bandwidth must be positive")
	case p.CmdFetchBytes <= 0 || p.CompletionBytes <= 0:
		return fmt.Errorf("proto: command/completion sizes must be positive")
	}
	return nil
}

// EffectiveQueueDepth bounds a requested I/O depth by the hardware limit.
func (p Params) EffectiveQueueDepth(requested int) int {
	if requested > p.QueueDepthLimit {
		return p.QueueDepthLimit
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// CmdFetchTime returns link occupancy for fetching one command. It copies
// the whole Params to work out a constant: core evaluates it once per
// system, at construction, and nothing calls it per request.
func (p Params) CmdFetchTime() sim.Duration {
	return sim.TransferTime(int64(p.CmdFetchBytes), p.LinkBytesPerSec)
}

// CompletionTime returns link occupancy for one completion record; like
// CmdFetchTime it is evaluated once per system, not per request.
func (p Params) CompletionTime() sim.Duration {
	return sim.TransferTime(int64(p.CompletionBytes), p.LinkBytesPerSec)
}

// SATA30 returns SATA 3.0 over AHCI: 6 Gbit/s 8b/10b (600 MB/s payload),
// one 32-entry NCQ command list, FIS-based transfers staged through the
// HBA, legacy interrupt, serialized host-controller I/O path (§IV-A).
func SATA30() Params {
	return Params{
		Kind:               SATA,
		QueueDepthLimit:    32,
		MaxQueues:          1,
		Arbitration:        FIFO,
		LinkBytesPerSec:    600e6,
		CmdFetchBytes:      64 + 20, // command table entry + register FIS
		CompletionBytes:    20,      // D2H register FIS
		ControllerLatency:  sim.FromMicroseconds(2.0),
		DoorbellLatency:    sim.FromNanoseconds(400),
		InterruptLatency:   sim.FromMicroseconds(1.5),
		HostControllerCopy: true,
		SubmitInstr:        14000,
		CompleteInstr:      11000,
		ParseMix:           cpu.MixHILParseHType,
		QueueMix:           cpu.MixHTypeQueue,
		CompleteMix:        cpu.MixCompletion,
	}
}

// UFS21 returns UFS 2.1: UTP engine on the SoC bus (AXI), M-PHY HS-G3 x2
// (~1166 MB/s raw, ~730 MB/s effective payload), 32-entry UTRD list,
// UPIU-based transfers (§IV-A). The host controller sits in the SoC so its
// crossing latency is lower than SATA's ICH path.
func UFS21() Params {
	return Params{
		Kind:               UFS,
		QueueDepthLimit:    32,
		MaxQueues:          1,
		Arbitration:        FIFO,
		LinkBytesPerSec:    730e6,
		CmdFetchBytes:      32 + 32, // UTRD + command UPIU
		CompletionBytes:    32,      // response UPIU
		ControllerLatency:  sim.FromMicroseconds(1.2),
		DoorbellLatency:    sim.FromNanoseconds(150),
		InterruptLatency:   sim.FromMicroseconds(1.0),
		HostControllerCopy: true,
		SubmitInstr:        12000,
		CompleteInstr:      9000,
		ParseMix:           cpu.MixHILParseHType,
		QueueMix:           cpu.MixHTypeQueue,
		CompleteMix:        cpu.MixCompletion,
	}
}

// NVMe121 returns NVMe 1.2.1 over PCIe Gen3 x4 (~3.2 GB/s effective
// payload): 64K rich queues of 64K entries, 64-byte SQ entries with PRP
// lists, 16-byte CQ entries, MSI-X, doorbell-driven (§IV-B).
func NVMe121() Params {
	return Params{
		Kind:              NVMe,
		QueueDepthLimit:   65536,
		MaxQueues:         65536,
		Arbitration:       RoundRobin,
		LinkBytesPerSec:   3.2e9,
		CmdFetchBytes:     64,
		CompletionBytes:   16,
		ControllerLatency: sim.FromMicroseconds(0.8),
		DoorbellLatency:   sim.FromNanoseconds(250),
		InterruptLatency:  sim.FromNanoseconds(600),
		SubmitInstr:       9000,
		CompleteInstr:     7000,
		ParseMix:          cpu.MixHILParseNVMe,
		QueueMix:          cpu.MixDoorbell,
		CompleteMix:       cpu.MixCompletion,
	}
}

// OCSSD20 returns Open-Channel SSD 2.0: the NVMe transport with vector
// (physical) commands. The device bypasses FTL/ICL; the host runs pblk.
// Vector commands are larger (address lists) and the host-side cost moves
// into the pblk model in package host.
func OCSSD20() Params {
	p := NVMe121()
	p.Kind = OCSSD
	p.CmdFetchBytes = 64 + 64 // SQ entry + PPA list
	p.ParseMix = cpu.Mix(300) // thin pass-through firmware
	p.SubmitInstr = 11000     // lightNVM adds driver work before pblk costs
	return p
}

// ForKind returns the default parameter set of the given protocol.
func ForKind(k Kind) (Params, error) {
	switch k {
	case SATA:
		return SATA30(), nil
	case UFS:
		return UFS21(), nil
	case NVMe:
		return NVMe121(), nil
	case OCSSD:
		return OCSSD20(), nil
	default:
		return Params{}, fmt.Errorf("proto: unknown kind %d", int(k))
	}
}
