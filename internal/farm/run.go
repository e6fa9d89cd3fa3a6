package farm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"amber/internal/ftl"
	"amber/internal/sim"
	"amber/internal/workload"
)

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opHedge
	opCopyRead
	opCopyWrite
)

// op is one device operation of the current round. Exec-phase workers
// write only done/err; everything else is fixed at creation.
type op struct {
	kind  opKind
	dev   int
	chain int // tenant chains; -1 for rebuild copies
	// Rebuild copies carry their own routing state instead of a chain.
	group int
	spare int
	unit  int64
	seq   uint64
	tried []int
	req   workload.Request
	buf   []byte
	issue sim.Time
	done  sim.Time
	err   error
}

type chainKind uint8

const (
	ckWrite chainKind = iota
	ckRead
)

// chain is one unit-aligned fragment of a tenant request: a write fans out
// to every member of the unit's write set; a read walks replicas with
// retries and an optional hedge leg.
type chain struct {
	kind    chainKind
	tenant  int
	group   int
	unit    int64
	devOff  int64
	absOff  int64
	length  int
	dataOff int
	seq     uint64 // writes: the global sequence this write holds
	issue   sim.Time

	attempt int
	tried   []int // reads: device ids already asked
	pending int
	acks    int
	maxObs  sim.Time
	// Read resolution: earliest successful leg wins.
	bestDone   sim.Time
	winnerBuf  []byte
	winnerKind opKind
	hedged     bool
	done       bool
}

type tenant struct {
	gen      workload.Generator
	next     int
	budget   int
	clock    sim.Time
	data     []byte
	pending  int
	inflight bool
	reqStart sim.Time
	reqDone  sim.Time
	reqFail  bool
}

// shiftGen offsets a generator into a tenant's private sub-span.
type shiftGen struct {
	g    workload.Generator
	base int64
}

func (s shiftGen) Name() string { return s.g.Name() }
func (s shiftGen) Next(i int) workload.Request {
	r := s.g.Next(i)
	r.Offset += s.base
	return r
}

// RunConfig drives one farm run: closed-loop depth-1 tenants over the
// striped volume.
type RunConfig struct {
	// Tenants is the number of concurrent closed-loop clients (default 1).
	Tenants int
	// Requests is the per-tenant request budget.
	Requests int
	// BlockSize defaults to one stripe unit.
	BlockSize int
	// Pattern is the FIO access pattern; ignored when MixedWrites > 0.
	Pattern workload.Pattern
	// MixedWrites switches to the write-then-read generator: each tenant's
	// first MixedWrites requests write, the rest read the written range.
	MixedWrites int
	// Seed derives every tenant's generator and payload stream.
	Seed uint64
	// WithData carries and checks real payload bytes (TrackData devices).
	WithData bool
	// DisjointSpans gives each tenant a private slice of the volume, so no
	// unit is ever raced by two tenants.
	DisjointSpans bool
	// VerifyReads compares every winning read payload against a host-side
	// model and counts mismatches in Stats.Corruptions. Requires WithData,
	// an unpreconditioned data-tracking farm, and race-free units
	// (DisjointSpans or a single tenant).
	VerifyReads bool
	// AbandonRebuilds stops rebuilds still active once tenant traffic
	// ends, instead of draining them to completion.
	AbandonRebuilds bool
}

// runState is the per-run working set of the round loop.
type runState struct {
	f       *Farm
	rc      RunConfig
	tenants []tenant
	chains  []chain
	cur     []op
	carry   []op
	ws      []int // writeSet scratch

	model      []byte
	skipVerify map[int64]bool

	readDigest uint64
	latSum     sim.Duration
	latMax     sim.Duration
}

// Run drives the tenants to completion (plus any rebuild drain) and
// returns the deterministic result.
func (f *Farm) Run(rc RunConfig) (RunResult, error) {
	if rc.Tenants <= 0 {
		rc.Tenants = 1
	}
	if rc.Requests <= 0 {
		return RunResult{}, fmt.Errorf("farm: RunConfig.Requests must be positive")
	}
	bs := rc.BlockSize
	if bs <= 0 {
		bs = int(f.unitBytes)
	}
	rc.BlockSize = bs
	if int64(bs) > f.VolumeBytes() {
		return RunResult{}, fmt.Errorf("farm: block size %d exceeds farm volume %d", bs, f.VolumeBytes())
	}
	if rc.VerifyReads {
		if !rc.WithData || !f.trackData {
			return RunResult{}, fmt.Errorf("farm: VerifyReads needs WithData and a data-tracking device")
		}
		if f.preconditioned {
			return RunResult{}, fmt.Errorf("farm: VerifyReads needs an unpreconditioned farm (unknown initial content)")
		}
		if rc.Tenants > 1 && !rc.DisjointSpans {
			return RunResult{}, fmt.Errorf("farm: VerifyReads with multiple tenants needs DisjointSpans")
		}
	}
	st := &runState{f: f, rc: rc, readDigest: fnvOffset}
	if rc.VerifyReads {
		st.model = make([]byte, f.VolumeBytes())
		st.skipVerify = make(map[int64]bool)
	}
	span := f.VolumeBytes()
	if rc.DisjointSpans {
		span = f.VolumeBytes() / int64(rc.Tenants) / int64(bs) * int64(bs)
		if span < int64(bs) {
			return RunResult{}, fmt.Errorf("farm: volume too small for %d disjoint tenant spans of block size %d",
				rc.Tenants, bs)
		}
	}
	st.tenants = make([]tenant, rc.Tenants)
	for ti := range st.tenants {
		seed := rc.Seed + uint64(ti)*0x9e3779b97f4a7c15
		var gen workload.Generator
		var err error
		if rc.MixedWrites > 0 {
			gen, err = workload.NewMixed(fmt.Sprintf("farm-t%d", ti), rc.MixedWrites, bs, span, seed)
		} else {
			gen, err = workload.NewFIO(rc.Pattern, bs, span, seed)
		}
		if err != nil {
			return RunResult{}, err
		}
		if rc.DisjointSpans && ti > 0 {
			gen = shiftGen{g: gen, base: int64(ti) * span}
		}
		t := &st.tenants[ti]
		t.gen = gen
		t.budget = rc.Requests
		if rc.WithData {
			t.data = make([]byte, bs)
		}
	}

	for {
		st.cur = append(st.cur[:0], st.carry...)
		st.carry = st.carry[:0]
		st.arrivals()
		if rc.AbandonRebuilds && st.trafficDone() {
			st.abandonRebuilds()
		}
		st.rebuildIssue()
		if len(st.cur) == 0 {
			if st.trafficDone() {
				break
			}
			// No device ops this round, but tenants still hold budget:
			// their arrivals all resolved instantly (e.g. a fully dead
			// group fails writes at decompose). Keep cycling rounds so
			// the closed loop drains its budget.
			continue
		}
		f.exec(st.cur)
		st.merge()
	}
	return RunResult{
		Stats:      f.stats.clone(),
		Now:        f.now,
		LatencySum: st.latSum,
		LatencyMax: st.latMax,
		ReadDigest: st.readDigest,
	}, nil
}

func (st *runState) trafficDone() bool {
	for i := range st.tenants {
		if st.tenants[i].budget > 0 || st.tenants[i].inflight {
			return false
		}
	}
	return true
}

func (st *runState) abandonRebuilds() {
	for _, g := range st.f.grps {
		if g.rb != nil {
			st.abortRebuild(g, st.f.now)
		}
	}
}

// fillPayload writes the deterministic payload stream of (seed, tenant,
// request) into buf — reproducible by tests without touching the farm.
func fillPayload(buf []byte, seed uint64, tenant, req int) {
	x := mix64(seed ^ (uint64(tenant)+1)*0x9e3779b97f4a7c15 ^ uint64(req)*0xd1342543de82ef95)
	for i := range buf {
		if i%8 == 0 {
			x = mix64(x)
		}
		buf[i] = byte(x >> uint((i%8)*8))
	}
}

// arrivals starts the next request of every idle tenant with budget: the
// closed-loop depth-1 contract, one request per tenant in flight.
func (st *runState) arrivals() {
	for ti := range st.tenants {
		t := &st.tenants[ti]
		if t.inflight || t.budget == 0 {
			continue
		}
		req := t.gen.Next(t.next)
		if st.rc.WithData && req.Write {
			fillPayload(t.data[:req.Length], st.rc.Seed, ti, t.next)
		}
		t.next++
		t.budget--
		t.inflight = true
		t.reqStart = t.clock
		t.reqDone = t.clock
		t.reqFail = false
		st.decompose(ti, req)
		if t.pending == 0 {
			// Every fragment resolved synchronously (no write set left
			// anywhere): the request is already over.
			st.finishRequest(t)
		}
	}
}

// decompose splits a tenant request into unit-aligned chains and issues
// their initial device legs at the tenant's clock.
func (st *runState) decompose(ti int, req workload.Request) {
	f := st.f
	t := &st.tenants[ti]
	end := req.Offset + int64(req.Length)
	for off := req.Offset; off < end; {
		u := off / f.unitBytes
		within := off - u*f.unitBytes
		n := f.unitBytes - within
		if rem := end - off; rem < n {
			n = rem
		}
		g := f.grps[f.groupOf(u)]
		ci := len(st.chains)
		c := chain{
			tenant:  ti,
			group:   g.id,
			unit:    u,
			devOff:  f.devOffset(u) + within,
			absOff:  off,
			length:  int(n),
			dataOff: int(off - req.Offset),
			issue:   t.clock,
		}
		if req.Write {
			c.kind = ckWrite
			f.writeSeq++
			c.seq = f.writeSeq
			f.unitSeq[u] = c.seq
			if st.model != nil {
				copy(st.model[off:off+n], t.data[c.dataOff:c.dataOff+int(n)])
			}
			st.ws = f.writeSet(g, st.ws)
			if len(st.ws) == 0 {
				f.stats.FailedWrites++
				st.markLost(u)
				c.done = true
				t.reqFail = true
			} else {
				var buf []byte
				if st.rc.WithData {
					buf = t.data[c.dataOff : c.dataOff+int(n)]
				}
				for _, d := range st.ws {
					st.cur = append(st.cur, op{kind: opWrite, dev: d, chain: ci,
						req: workload.Request{Write: true, Offset: c.devOff, Length: c.length},
						buf: buf, issue: t.clock})
				}
				c.pending = len(st.ws)
			}
		} else {
			c.kind = ckRead
			primary, ok := f.pickRead(g, u, nil)
			if !ok {
				f.stats.FailedReads++
				f.stats.ReadsLost++
				c.done = true
				t.reqFail = true
			} else {
				c.tried = append(c.tried, primary)
				st.cur = append(st.cur, op{kind: opRead, dev: primary, chain: ci,
					req: workload.Request{Offset: c.devOff, Length: c.length},
					buf: st.readBuf(c.length), issue: t.clock})
				c.pending = 1
			}
		}
		if !c.done {
			t.pending++
		}
		st.chains = append(st.chains, c)
		off += n
	}
}

func (st *runState) readBuf(n int) []byte {
	if !st.rc.WithData {
		return nil
	}
	return make([]byte, n)
}

func (st *runState) markLost(u int64) {
	if st.skipVerify != nil {
		st.skipVerify[u] = true
	}
}

// rebuildIssue advances every active rebuild: completed copy-reads become
// copy-writes (unless a fresher tenant write superseded them), then new
// copy-reads fill the in-flight budget. Runs after arrivals so the
// current round's unit sequence bumps are visible — the ordering that
// makes "drop superseded copies" airtight.
func (st *runState) rebuildIssue() {
	f := st.f
	for _, g := range f.grps {
		rb := g.rb
		if rb == nil {
			continue
		}
		for _, r := range rb.ready {
			if f.unitSeq[r.unit] != r.seq {
				// A tenant wrote this unit after the copy-read was decided;
				// the spare already took that write directly.
				f.stats.UnitsDropped++
				rb.inflight--
				continue
			}
			issue := r.done
			if issue < rb.clock {
				issue = rb.clock
			}
			st.cur = append(st.cur, op{kind: opCopyWrite, dev: rb.spare, chain: -1,
				group: g.id, spare: rb.spare, unit: r.unit, seq: r.seq,
				req: workload.Request{Write: true, Offset: f.devOffset(r.unit), Length: int(f.unitBytes)},
				buf: r.buf, issue: issue})
		}
		rb.ready = rb.ready[:0]
		for rb.inflight < f.pol.RebuildBatch && rb.cursor < f.unitsPerGroup {
			u := f.globalUnit(g.id, rb.cursor)
			rb.cursor++
			seq := f.unitSeq[u]
			if seq > rb.startSeq || (seq == 0 && !f.preconditioned) {
				// Written after the spare joined the write set (already
				// there), or provably blank on a blank farm.
				f.stats.UnitsSkipped++
				continue
			}
			src, ok := f.pickRead(g, u, nil)
			if !ok {
				f.stats.UnitsLost++
				st.markLost(u)
				continue
			}
			rb.inflight++
			st.cur = append(st.cur, op{kind: opCopyRead, dev: src, chain: -1,
				group: g.id, spare: rb.spare, unit: u, seq: seq, tried: []int{src},
				req: workload.Request{Offset: f.devOffset(u), Length: int(f.unitBytes)},
				buf: st.copyBuf(), issue: rb.clock})
		}
		if rb.cursor >= f.unitsPerGroup && rb.inflight == 0 && len(rb.ready) == 0 {
			// Reconstruction complete: the spare becomes a live member.
			d := f.devs[rb.spare]
			d.state = devLive
			g.members = append(g.members, rb.spare)
			f.stats.RebuildsCompleted++
			f.stats.event("rebuild-done", rb.spare, g.id, rb.spare, rb.clock)
			g.rb = nil
		}
	}
}

func (st *runState) copyBuf() []byte {
	if !st.f.trackData {
		return nil
	}
	return make([]byte, st.f.unitBytes)
}

// exec runs the round's device windows: serial below two active devices or
// workers <= 1, otherwise a transient worker set claiming devices off an
// atomic cursor.
func (f *Farm) exec(ops []op) {
	for i := range ops {
		d := f.devs[ops[i].dev]
		if len(d.q) == 0 {
			f.active = append(f.active, int32(d.id))
		}
		d.q = append(d.q, int32(i))
	}
	sort.Slice(f.active, func(i, j int) bool { return f.active[i] < f.active[j] })
	w := f.workers
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w > len(f.active) {
		w = len(f.active)
	}
	if w <= 1 {
		for _, id := range f.active {
			f.execDevice(f.devs[id], ops)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(f.active) {
						return
					}
					f.execDevice(f.devs[f.active[n]], ops)
				}
			}()
		}
		wg.Wait()
	}
	f.active = f.active[:0]
}

// execDevice serves one device's queue in (issue time, creation) order.
// The device is owned exclusively by this goroutine for the round.
func (f *Farm) execDevice(d *device, ops []op) {
	sort.Slice(d.q, func(i, j int) bool {
		a, b := &ops[d.q[i]], &ops[d.q[j]]
		if a.issue != b.issue {
			return a.issue < b.issue
		}
		return d.q[i] < d.q[j]
	})
	for _, qi := range d.q {
		f.execOp(d, &ops[qi])
	}
	d.q = d.q[:0]
}

// execOp applies the device's fault schedule at the op's issue time, then
// submits through the ordinary synchronous path. A dead device is never
// called; a storm shifts the clamped issue time by the penalty.
func (f *Farm) execOp(d *device, o *op) {
	df := &d.faults
	if df.roAt > 0 && !d.roHit && o.issue >= df.roAt {
		d.sys.ForceReadOnly()
		d.roHit = true
	}
	if df.deadAt > 0 && o.issue >= df.deadAt {
		d.downHit = true
	}
	if d.downHit {
		o.done, o.err = 0, errDeviceDown
		return
	}
	at := o.issue
	if df.stormStart > 0 && o.issue >= df.stormStart && o.issue < df.stormEnd {
		at = sim.MaxOf(o.issue, d.sys.Now()) + f.cfg.Faults.StormPenalty
	}
	done, err := d.sys.Submit(at, o.req, o.buf)
	if err == nil && df.deadAt > 0 && done > df.deadAt {
		// The device died while serving: the completion never escaped.
		d.downHit = true
		done, err = 0, errDeviceDown
	}
	o.done, o.err = done, err
}

// observe is when the host learns an op's fate: completions at their done
// time, device silence at issue + RequestTimeout, explicit refusals at
// their issue time.
func (st *runState) observe(o *op) sim.Time {
	if o.err == nil {
		return o.done
	}
	if errors.Is(o.err, errDeviceDown) {
		st.f.stats.Timeouts++
		return o.issue + st.f.pol.RequestTimeout
	}
	return o.issue
}

// merge folds the round's results back into host state, strictly in op
// creation order.
func (st *runState) merge() {
	for i := range st.cur {
		o := &st.cur[i]
		st.f.stats.SubOps++
		obs := st.observe(o)
		if obs > st.f.now {
			st.f.now = obs
		}
		if o.err != nil {
			st.kickFromError(o, obs)
		}
		switch o.kind {
		case opWrite:
			st.mergeWrite(o, obs)
		case opRead, opHedge:
			st.mergeRead(o, obs)
		case opCopyRead:
			st.mergeCopyRead(o, obs)
		case opCopyWrite:
			st.mergeCopyWrite(o, obs)
		}
	}
}

// kickFromError translates a failed op into membership changes: device
// death and read-only latches remove the device from service and may
// trigger a spare failover.
func (st *runState) kickFromError(o *op, obs sim.Time) {
	if errors.Is(o.err, errDeviceDown) {
		st.kickDead(o.dev, obs)
		return
	}
	if errors.Is(o.err, ftl.ErrReadOnly) {
		var refused uint64
		if o.kind == opWrite && o.chain >= 0 {
			refused = st.chains[o.chain].seq
		}
		st.kickReadOnly(o.dev, obs, refused)
	}
}

func (st *runState) kickDead(id int, at sim.Time) {
	f := st.f
	d := f.devs[id]
	if d.state == devDead {
		return
	}
	prev := d.state
	d.state = devDead
	f.stats.DeviceDeaths++
	f.stats.event("kick-dead", id, d.group, -1, at)
	switch prev {
	case devLive:
		g := f.grps[d.group]
		d.exitSeq = f.writeSeq
		g.dropMember(id)
		st.maybeFailover(g, at)
	case devRebuilding:
		st.abortRebuild(f.grps[d.group], at)
	}
}

// kickReadOnly removes a latched device from the write set. exitSeq is the
// highest write sequence the device provably holds: it starts at the
// current global sequence and is lowered by every refused write observed,
// so a refused seq s caps it at s-1 — replicas never serve a unit their
// latch made them miss.
func (st *runState) kickReadOnly(id int, at sim.Time, refusedSeq uint64) {
	f := st.f
	d := f.devs[id]
	switch d.state {
	case devReadOnly:
		if refusedSeq > 0 && refusedSeq-1 < d.exitSeq {
			d.exitSeq = refusedSeq - 1
		}
	case devLive:
		d.state = devReadOnly
		d.exitSeq = f.writeSeq
		if refusedSeq > 0 && refusedSeq-1 < d.exitSeq {
			d.exitSeq = refusedSeq - 1
		}
		f.stats.ReadOnlyLatches++
		f.stats.event("kick-readonly", id, d.group, -1, at)
		g := f.grps[d.group]
		g.dropMember(id)
		st.maybeFailover(g, at)
	case devRebuilding:
		d.state = devReadOnly
		d.exitSeq = 0 // a half-rebuilt latched spare proves nothing
		f.stats.ReadOnlyLatches++
		f.stats.event("kick-readonly", id, d.group, -1, at)
		st.abortRebuild(f.grps[d.group], at)
	}
}

// maybeFailover attaches the next hot spare to a group that lost a member
// and starts its rebuild.
func (st *runState) maybeFailover(g *group, at sim.Time) {
	f := st.f
	if g.rb != nil || len(f.spares) == 0 || len(g.members) >= f.cfg.Replicas {
		return
	}
	id := f.spares[0]
	f.spares = f.spares[1:]
	d := f.devs[id]
	d.state = devRebuilding
	d.group = g.id
	g.rb = &rebuild{group: g.id, spare: id, startSeq: f.writeSeq, clock: at}
	f.stats.RebuildsStarted++
	f.stats.event("rebuild-start", id, g.id, id, at)
}

func (st *runState) abortRebuild(g *group, at sim.Time) {
	f := st.f
	rb := g.rb
	if rb == nil {
		return
	}
	f.stats.RebuildsAborted++
	f.stats.event("rebuild-abort", rb.spare, g.id, rb.spare, at)
	g.rb = nil
	// The group is still short a member: try the next spare from scratch.
	st.maybeFailover(g, at)
}

func (st *runState) mergeWrite(o *op, obs sim.Time) {
	c := &st.chains[o.chain]
	if obs > c.maxObs {
		c.maxObs = obs
	}
	if o.err == nil {
		c.acks++
	}
	c.pending--
	if c.pending > 0 {
		return
	}
	if c.acks > 0 {
		st.chainDone(c, c.maxObs, false)
		return
	}
	f := st.f
	st.ws = f.writeSet(f.grps[c.group], st.ws)
	if c.attempt < f.pol.MaxRetries && len(st.ws) > 0 {
		c.attempt++
		f.stats.Retries++
		issue := c.maxObs + f.pol.backoff(c.attempt)
		var buf []byte
		if st.rc.WithData {
			buf = st.tenants[c.tenant].data[c.dataOff : c.dataOff+c.length]
		}
		for _, dv := range st.ws {
			st.carry = append(st.carry, op{kind: opWrite, dev: dv, chain: o.chain,
				req: workload.Request{Write: true, Offset: c.devOff, Length: c.length},
				buf: buf, issue: issue})
		}
		c.pending = len(st.ws)
		return
	}
	f.stats.FailedWrites++
	st.markLost(c.unit)
	st.chainDone(c, c.maxObs, true)
}

func (st *runState) mergeRead(o *op, obs sim.Time) {
	f := st.f
	c := &st.chains[o.chain]
	ci := o.chain
	c.pending--
	if o.err == nil {
		if c.bestDone == 0 || o.done < c.bestDone {
			c.bestDone = o.done
			c.winnerBuf = o.buf
			c.winnerKind = o.kind
		}
		// Slow primary: fire the hedge the host would have launched at
		// issue+HedgeAfter, still waiting for this answer.
		if o.kind == opRead && !c.hedged && f.pol.HedgeAfter > 0 && o.done > c.issue+f.pol.HedgeAfter {
			if sec, ok := f.pickRead(f.grps[c.group], c.unit, c.tried); ok {
				c.hedged = true
				c.tried = append(c.tried, sec)
				f.stats.Hedges++
				st.carry = append(st.carry, op{kind: opHedge, dev: sec, chain: ci,
					req: workload.Request{Offset: c.devOff, Length: c.length},
					buf: st.readBuf(c.length), issue: c.issue + f.pol.HedgeAfter})
				c.pending++
			}
		}
	} else {
		if obs > c.maxObs {
			c.maxObs = obs
		}
		if c.bestDone == 0 && c.attempt < f.pol.MaxRetries {
			if next, ok := f.pickRead(f.grps[c.group], c.unit, c.tried); ok {
				c.attempt++
				c.tried = append(c.tried, next)
				f.stats.Retries++
				st.carry = append(st.carry, op{kind: opRead, dev: next, chain: ci,
					req: workload.Request{Offset: c.devOff, Length: c.length},
					buf: st.readBuf(c.length), issue: obs + f.pol.backoff(c.attempt)})
				c.pending++
			} else {
				f.stats.ReadsLost++
			}
		}
	}
	if c.pending > 0 {
		return
	}
	if c.bestDone > 0 {
		if c.winnerKind == opHedge {
			f.stats.HedgeWins++
		}
		st.readDigest = fnvU64(st.readDigest, uint64(c.bestDone))
		if c.winnerBuf != nil {
			copy(st.tenants[c.tenant].data[c.dataOff:c.dataOff+c.length], c.winnerBuf)
			st.readDigest = fnvBytes(st.readDigest, c.winnerBuf)
			if st.model != nil && !st.skipVerify[c.unit] {
				if !bytes.Equal(c.winnerBuf, st.model[c.absOff:c.absOff+int64(c.length)]) {
					f.stats.Corruptions++
				}
			}
		}
		st.chainDone(c, c.bestDone, false)
		return
	}
	f.stats.FailedReads++
	st.chainDone(c, c.maxObs, true)
}

func (st *runState) mergeCopyRead(o *op, obs sim.Time) {
	f := st.f
	g := f.grps[o.group]
	rb := g.rb
	if rb == nil || rb.spare != o.spare {
		return // rebuild aborted while this copy was in flight
	}
	if obs > rb.clock {
		rb.clock = obs
	}
	if o.err == nil {
		rb.ready = append(rb.ready, copyRead{unit: o.unit, seq: o.seq, buf: o.buf, done: o.done})
		return
	}
	if src, ok := f.pickRead(g, o.unit, o.tried); ok {
		f.stats.Retries++
		st.carry = append(st.carry, op{kind: opCopyRead, dev: src, chain: -1,
			group: o.group, spare: o.spare, unit: o.unit, seq: o.seq,
			tried: append(o.tried, src), req: o.req, buf: o.buf, issue: obs})
		return
	}
	f.stats.UnitsLost++
	st.markLost(o.unit)
	rb.inflight--
}

func (st *runState) mergeCopyWrite(o *op, obs sim.Time) {
	f := st.f
	g := f.grps[o.group]
	rb := g.rb
	if rb == nil || rb.spare != o.spare {
		return
	}
	if obs > rb.clock {
		rb.clock = obs
	}
	if o.err == nil {
		f.stats.UnitsCopied++
		rb.inflight--
		return
	}
	// A dead or latched spare was kicked by kickFromError, aborting the
	// rebuild before this handler ran (rb == nil above). Reaching here
	// means an unexpected residual error on a healthy spare: give the unit
	// up rather than stall the rebuild.
	f.stats.UnitsLost++
	st.markLost(o.unit)
	rb.inflight--
}

// chainDone resolves one fragment of a tenant request.
func (st *runState) chainDone(c *chain, at sim.Time, failed bool) {
	if c.done {
		return
	}
	c.done = true
	t := &st.tenants[c.tenant]
	if at > t.reqDone {
		t.reqDone = at
	}
	if failed {
		t.reqFail = true
	}
	t.pending--
	if t.pending == 0 {
		st.finishRequest(t)
	}
}

func (st *runState) finishRequest(t *tenant) {
	t.inflight = false
	t.clock = t.reqDone
	st.f.stats.Requests++
	lat := t.reqDone - t.reqStart
	st.latSum += lat
	if lat > st.latMax {
		st.latMax = lat
	}
}

func (p Policy) backoff(attempt int) sim.Duration {
	b := p.RetryBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
	}
	return b
}
