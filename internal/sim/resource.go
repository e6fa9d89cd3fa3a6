package sim

import "amber/internal/snap"

// Resource is a single-server FCFS resource reserved by time spans.
//
// Callers "claim" a duration starting no earlier than now; the resource
// returns the actual [start, end) interval, pushing its next free time to
// end. This time-reservation style models queueing delay on buses, flash
// dies, DRAM banks and CPU cores without explicit queue processes, and is
// exact for FCFS service disciplines.
type Resource struct {
	freeAt Time
	busy   Duration // accumulated service time
	claims uint64
}

// NewResource returns an idle resource. name labels it at the call site
// only: the resource does not keep it, and its image carries none.
func NewResource(name string) *Resource { return &Resource{} }

// Claim reserves dur starting at or after now, whichever is later than the
// resource's next free time, and returns the service interval.
func (r *Resource) Claim(now Time, dur Duration) (start, end Time) {
	start = MaxOf(now, r.freeAt)
	end = start + dur
	r.freeAt = end
	r.busy += dur
	r.claims++
	return start, end
}

// ClaimRun makes k claims of dur each, the i-th arriving at first+i·stride,
// and returns the end of the last — state and result exactly those of
//
//	for i := 0; i < k; i++ { _, end = r.Claim(first+Time(i)*stride, dur) }
//
// in O(1). The loop is the max-plus recurrence end_i = max(arrive_i,
// end_{i-1}) + dur; unrolled, the last end is the largest of freeAt + k·dur
// (the backlog never drains) and arrive_j + (k-j)·dur over every j (claim j
// starts on arrival and the rest follow back to back). Arrivals are linear
// in j, so that second term is too and its maximum sits at an end point:
// j = 0 or j = k-1. k <= 0 claims nothing and returns the current free time.
func (r *Resource) ClaimRun(first Time, stride, dur Duration, k int) (end Time) {
	if k <= 0 {
		return r.freeAt
	}
	n := Duration(k)
	end = MaxOf(r.freeAt, first) + n*dur
	if last := first + (n-1)*stride + dur; last > end {
		end = last
	}
	r.freeAt = end
	r.busy += n * dur
	r.claims += uint64(k)
	return end
}

// FreeAt returns the time at which the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime returns total reserved service time.
func (r *Resource) BusyTime() Duration { return r.busy }

// ResourceState is a Resource's serializable reservation state, captured by
// State and reinstalled by SetState for snapshot/restore.
type ResourceState struct {
	FreeAt Time
	Busy   Duration
	Claims uint64
}

// State captures the reservation state.
func (r *Resource) State() ResourceState {
	return ResourceState{FreeAt: r.freeAt, Busy: r.busy, Claims: r.claims}
}

// SetState reinstalls a previously captured reservation state.
func (r *Resource) SetState(st ResourceState) {
	r.freeAt = st.FreeAt
	r.busy = st.Busy
	r.claims = st.Claims
}

// Snap walks the reservation state for a snapshot image.
func (r *Resource) Snap(c *snap.Codec) {
	snap.I(c, &r.freeAt)
	snap.I(c, &r.busy)
	snap.U(c, &r.claims)
}

// Pool is a k-server resource: each claim is served by the server that
// frees earliest. It models identical parallel units such as CPU cores.
type Pool struct {
	name    string
	servers []Time
	busy    Duration
	claims  uint64
}

// NewPool returns a pool of n idle servers. n must be positive.
func NewPool(name string, n int) *Pool {
	if n <= 0 {
		panic("sim: pool must have at least one server")
	}
	return &Pool{name: name, servers: make([]Time, n)}
}

// Claim reserves dur on the earliest-free server and returns the service
// interval together with the chosen server index.
func (p *Pool) Claim(now Time, dur Duration) (start, end Time, server int) {
	server = 0
	for i := 1; i < len(p.servers); i++ {
		if p.servers[i] < p.servers[server] {
			server = i
		}
	}
	start = MaxOf(now, p.servers[server])
	end = start + dur
	p.servers[server] = end
	p.busy += dur
	p.claims++
	return start, end, server
}

// ClaimServer reserves dur on a specific server, modeling pinned work such
// as a firmware module bound to one embedded core.
func (p *Pool) ClaimServer(server int, now Time, dur Duration) (start, end Time) {
	start = MaxOf(now, p.servers[server])
	end = start + dur
	p.servers[server] = end
	p.busy += dur
	p.claims++
	return start, end
}

// BusyTime returns total reserved service time across all servers.
func (p *Pool) BusyTime() Duration { return p.busy }

// Snap walks the reservation state for a snapshot image. The server count
// is configuration: an image of a differently sized pool is a mismatch.
func (p *Pool) Snap(c *snap.Codec) error {
	if err := c.Same(len(p.servers), p.name+" servers"); err != nil {
		return err
	}
	for i := range p.servers {
		snap.I(c, &p.servers[i])
	}
	snap.I(c, &p.busy)
	snap.U(c, &p.claims)
	return c.Err()
}
