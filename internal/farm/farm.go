// Package farm simulates a shelf of SSDs behind one host: N core.Systems
// sharing one virtual clock, fronted by a multiplexer that stripes tenant
// requests across replica groups. Devices are natural parallel domains —
// they interact only through the host — and the farm adds the failure modes
// that only exist at farm width: whole-device death, a device-level
// read-only latch (riding ftl.ErrReadOnly), and latency-storm windows,
// answered by host-side retry with backoff, request timeouts, hedged
// reads, replica failover, and hot-spare rebuild.
//
// Execution is round-based lockstep:
//
//  1. Host phase (serial): decide every device operation that exists this
//     round — new tenant arrivals, retry/hedge legs carried over from the
//     previous merge, rebuild copies — each with its device, payload and
//     issue time, before any device clock moves.
//  2. Device windows (parallel): each device executes its queue in
//     (issue time, creation order) through its own System's Submit; one
//     device is owned by exactly one worker and no worker touches another
//     device's state. The farm applies a member's faults itself at that
//     boundary: a dead member is never called again, and a storm shifts
//     the op's issue time by StormPenalty.
//  3. Merge phase (serial): results are folded back into host policy state
//     in op creation order — kicks, failovers, retry/hedge decisions,
//     rebuild bookkeeping, tenant completions — an order fixed by the host
//     phase that created the ops, not by which worker finished first.
//
// Fault draws are pure functions of (seed, device index, fault kind), fixed
// at construction, and are applied by the op's issue time, so a window's
// outcome depends only on its own queue. Worker count therefore never
// appears in any value the farm computes: the golden tests pin the whole
// trajectory — counters, event timeline, per-device content digests —
// byte-identical serial and at workers {1, 2, 4}, and to a committed digest.
package farm

import (
	"fmt"
	"slices"

	"amber/internal/core"
	"amber/internal/sim"
)

// Policy is the host robustness policy: how the multiplexer answers
// device-level failures and slowness.
type Policy struct {
	// MaxRetries bounds per-sub-operation retries (a read moving to the
	// next replica, a write re-issued to the refreshed write set).
	MaxRetries int
	// RetryBackoff is the base delay before a retry; it doubles with each
	// attempt.
	RetryBackoff sim.Duration
	// RequestTimeout is when the host observes a device's silence: an
	// operation lost to a dead device is detected at issue+RequestTimeout.
	RequestTimeout sim.Duration
	// HedgeAfter fires a hedged read to another replica when the primary
	// has not answered within this latency. Zero disables hedging.
	HedgeAfter sim.Duration
	// RebuildBatch bounds how many rebuild copy units are in flight at
	// once — the throttle that keeps reconstruction an ordinary background
	// request stream instead of a device-saturating burst.
	RebuildBatch int
}

func (p Policy) withDefaults() Policy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 2
	}
	if p.RetryBackoff == 0 {
		p.RetryBackoff = 50 * sim.Microsecond
	}
	if p.RequestTimeout == 0 {
		p.RequestTimeout = 2 * sim.Millisecond
	}
	if p.RebuildBatch <= 0 {
		p.RebuildBatch = 8
	}
	return p
}

// Config describes a farm: identical devices arranged as Groups stripe
// columns of Replicas mirrors each, plus idle hot spares.
type Config struct {
	// Device is the per-device configuration. Every device in the farm is
	// built from this one config (snapshot cloning requires it — see New).
	Device core.SystemConfig
	// Groups is the stripe width: unit u lives in group u % Groups.
	Groups int
	// Replicas is the mirror count per group; writes go to every live
	// member, reads to a deterministic primary.
	Replicas int
	// Spares is the number of idle hot-spare devices rebuilt onto after a
	// member is lost.
	Spares int
	// Precondition sequentially fills device 0 to steady state before
	// cloning it into the rest of the farm through snapshot/restore, so
	// all devices start from one identical aged image.
	Precondition bool
	// Workers sets the parallel device-window width; <= 1 executes device
	// windows serially. Results are byte-identical at any value.
	Workers int
	// Policy is the host robustness policy (zero fields take defaults).
	Policy Policy
	// Faults is the seeded device-level fault schedule.
	Faults FaultConfig
}

type devState uint8

const (
	devLive       devState = iota // serving member of its group
	devSpare                      // idle hot spare
	devRebuilding                 // spare attached to a group, copying
	devReadOnly                   // latched read-only, kicked from writes
	devDead                       // whole-device failure observed
)

func (s devState) String() string {
	switch s {
	case devLive:
		return "live"
	case devSpare:
		return "spare"
	case devRebuilding:
		return "rebuilding"
	case devReadOnly:
		return "readonly"
	case devDead:
		return "dead"
	}
	return fmt.Sprintf("devState(%d)", int(s))
}

// device is one farm slot: a full simulated System plus the host's view of
// it. Exec-phase workers own a device exclusively within a round; all
// other fields are only touched by the serial host phases.
type device struct {
	id    int
	sys   *core.System
	state devState
	group int // -1 while an idle spare
	// exitSeq is the highest global write sequence this device is
	// guaranteed to have applied when it left the live set; a kicked
	// replica may serve unit u only while exitSeq >= unitSeq[u].
	exitSeq uint64
	faults  devFaults
	downHit bool // death latch: sys is never called again
	roHit   bool // read-only latch applied to sys
	q       []int32
}

// group is one stripe column: the live members plus at most one active
// rebuild.
type group struct {
	id      int
	members []int
	rb      *rebuild
}

// rebuild reconstructs a lost member's contents onto a spare from the
// surviving replicas, as a throttled request stream on the shared
// timeline. The spare joins the write set immediately, so only units
// written before startSeq need copying; units overwritten by tenants while
// a copy is in flight are dropped in favor of the fresher direct write.
type rebuild struct {
	group    int
	spare    int
	startSeq uint64
	clock    sim.Time // throttle: the next copy batch issues here
	cursor   int64    // next group-local unit to consider
	inflight int      // units between copy-read issue and copy-write merge
	ready    []copyRead
}

type copyRead struct {
	unit int64
	seq  uint64
	buf  []byte
	done sim.Time
}

// Farm is the shelf: devices, groups, spares, and the unit version vector
// that keeps failover and rebuild reads consistent.
type Farm struct {
	cfg  Config
	pol  Policy
	devs []*device
	grps []*group
	// spares holds idle spare device ids in attachment order.
	spares []int

	unitBytes      int64
	unitsPerGroup  int64
	totalUnits     int64
	trackData      bool
	preconditioned bool

	// writeSeq is the global write sequence; unitSeq[u] is the sequence of
	// the last host write that touched unit u (0 = never written).
	writeSeq uint64
	unitSeq  []uint64

	workers int
	now     sim.Time
	stats   Stats

	active []int32 // exec-phase scratch: device ids with queued ops
}

// New builds the farm: device 0 is constructed (and optionally
// preconditioned), then cloned into every other slot through
// snapshot/restore — one aging pass instead of N. All devices share one
// config (the snapshot fingerprint demands it); divergence comes only from
// the seeded per-device fault schedule and the traffic itself.
func New(cfg Config) (*Farm, error) {
	if cfg.Groups < 1 || cfg.Replicas < 1 || cfg.Spares < 0 {
		return nil, fmt.Errorf("farm: need groups >= 1, replicas >= 1, spares >= 0 (got %d/%d/%d)",
			cfg.Groups, cfg.Replicas, cfg.Spares)
	}
	if err := cfg.Faults.validate(); err != nil {
		return nil, err
	}
	n := cfg.Groups*cfg.Replicas + cfg.Spares
	first, err := core.NewSystem(cfg.Device)
	if err != nil {
		return nil, err
	}
	if cfg.Precondition {
		if err := first.Precondition(8); err != nil {
			return nil, fmt.Errorf("farm: precondition: %w", err)
		}
	}
	var img []byte
	if n > 1 {
		img, err = first.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("farm: snapshot device 0: %w", err)
		}
	}
	f := &Farm{
		cfg:            cfg,
		pol:            cfg.Policy.withDefaults(),
		unitBytes:      int64(first.Split.LineBytes()),
		trackData:      cfg.Device.Device.TrackData,
		preconditioned: cfg.Precondition,
		workers:        cfg.Workers,
	}
	f.unitsPerGroup = first.VolumeBytes() / f.unitBytes
	f.totalUnits = f.unitsPerGroup * int64(cfg.Groups)
	f.unitSeq = make([]uint64, f.totalUnits)
	f.devs = make([]*device, n)
	for i := 0; i < n; i++ {
		sys := first
		if i > 0 {
			sys, err = core.NewSystem(cfg.Device)
			if err != nil {
				return nil, err
			}
			if err := sys.Restore(img); err != nil {
				return nil, fmt.Errorf("farm: clone device %d: %w", i, err)
			}
		}
		f.devs[i] = &device{id: i, sys: sys, group: -1, faults: cfg.Faults.schedule(i)}
	}
	for g := 0; g < cfg.Groups; g++ {
		grp := &group{id: g}
		for r := 0; r < cfg.Replicas; r++ {
			id := g*cfg.Replicas + r
			f.devs[id].state = devLive
			f.devs[id].group = g
			grp.members = append(grp.members, id)
		}
		f.grps = append(f.grps, grp)
	}
	for s := 0; s < cfg.Spares; s++ {
		id := cfg.Groups*cfg.Replicas + s
		f.devs[id].state = devSpare
		f.spares = append(f.spares, id)
	}
	return f, nil
}

// VolumeBytes is the logical capacity the farm exposes to tenants.
func (f *Farm) VolumeBytes() int64 { return f.totalUnits * f.unitBytes }

// UnitBytes is the stripe unit (one device super-page line).
func (f *Farm) UnitBytes() int64 { return f.unitBytes }

// Devices returns the total device count (members + spares).
func (f *Farm) Devices() int { return len(f.devs) }

// Stats returns a copy of the farm counters.
func (f *Farm) Stats() Stats { return f.stats.clone() }

// groupOf maps a global unit to its stripe group.
func (f *Farm) groupOf(u int64) int { return int(u % int64(f.cfg.Groups)) }

// devOffset maps a global unit to its byte offset inside each replica.
func (f *Farm) devOffset(u int64) int64 { return (u / int64(f.cfg.Groups)) * f.unitBytes }

// globalUnit is the inverse of (group, local) decomposition.
func (f *Farm) globalUnit(g int, local int64) int64 {
	return local*int64(f.cfg.Groups) + int64(g)
}

// writeSet is where a write to group g lands: every live member plus the
// rebuilding spare (which takes all new writes so the copy stream only has
// to cover history).
func (f *Farm) writeSet(g *group, dst []int) []int {
	dst = append(dst[:0], g.members...)
	if g.rb != nil {
		dst = append(dst, g.rb.spare)
	}
	return dst
}

// pickRead chooses the replica to serve unit u, skipping device ids in
// tried: the deterministic primary rotation over live members first, then
// — when no live member remains — the freshest kicked read-only replica
// that provably holds the unit's last write (exitSeq >= unitSeq[u]).
// Dead devices never serve. The second result is false when no replica
// can serve the unit without risking stale data: the caller counts the
// unit lost rather than silently serving an old version.
func (f *Farm) pickRead(g *group, u int64, tried []int) (int, bool) {
	if n := len(g.members); n > 0 {
		// Rotate on the group-local index: the global unit number is
		// congruent to the group id mod Groups, so it would pin one member
		// as everyone's primary.
		start := int((u / int64(f.cfg.Groups)) % int64(n))
		for i := 0; i < n; i++ {
			id := g.members[(start+i)%n]
			if !slices.Contains(tried, id) {
				return id, true
			}
		}
	}
	best, found := -1, false
	for _, d := range f.devs {
		if d.group != g.id || d.state != devReadOnly || slices.Contains(tried, d.id) {
			continue
		}
		if d.exitSeq < f.unitSeq[u] {
			continue // provably stale for this unit
		}
		if !found || d.exitSeq > f.devs[best].exitSeq {
			best, found = d.id, true
		}
	}
	return best, found
}

// dropMember removes id from its group's live set.
func (g *group) dropMember(id int) {
	for i, m := range g.members {
		if m == id {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}
