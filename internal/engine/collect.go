package engine

import (
	"math"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// Request-collection telemetry on the default registry (the per-run
// Config.Telemetry registry is policy-agnostic; the collect path sits below
// the Policy interface, so its metrics live package-wide like
// internal/parallel's).
var (
	collectDuration   = telemetry.Default().Histogram("engine_collect_duration_seconds", nil)
	collectParallel   = telemetry.Default().Counter("engine_collect_parallel_total")
	collectSequential = telemetry.Default().Counter("engine_collect_sequential_total")
)

// collectParallelMin is the number of users to probe at which a collection
// fans the probes across internal/parallel shards. Below it the goroutine
// fan-out costs more than the probes; a package variable so tests can force
// either path.
var collectParallelMin = 96

// driftUnit is the fixed-point unit of the per-user drift counters: 2^-32
// profit-share units, so drift sums are exact integer additions.
const driftUnit = 0x1p-32

// driftInf marks a drift too large to bound; it forces a re-probe.
const driftInf = math.MaxUint64

// collector gathers one run's update requests slot after slot (Algorithm 1
// lines 10–14). It keeps every user's last exact probe — ΔP_i(c) for each
// route c, and the best response set Δ_i drawn from it — and, between
// collections, re-probes only the users whose Δ_i may have changed:
//
//   - a user whose route moved is always re-probed;
//   - a user none of whose watched tasks changed count since its last probe
//     (drift 0) reuses its probe: shares are a pure function of counts, so
//     a fresh probe would be bit-identical;
//   - a user whose drift cannot lift any ΔP_i(c) above core.Eps —
//     gap_i + α_i·drift_i ≤ Eps − slack_i, gap_i the largest cached ΔP_i(c)
//     — keeps Δ_i = ∅ without a probe;
//   - every other user is re-probed.
//
// A task is watched by a user when it lies on some, but not all, of the
// user's routes: only those tasks enter a ΔP_i(c) (a task on every route
// cancels out of every symmetric difference). The derivation of the skip
// rule and its slack is in ALGORITHMS.md, "Incremental request collection".
//
// A collector serves one profile; handed another, it starts over. Its
// zero value is ready to use.
type collector struct {
	p  *core.Profile
	in *core.Instance

	off    []int32   // user i's routes occupy flat slots off[i] .. off[i+1]
	dp     []float64 // dp[off[i]+c] = ΔP_i(c) at user i's last probe (0 at its route)
	delta  []int32   // delta[off[i] : off[i]+nd[i]] = Δ_i at the last probe
	nd     []int32
	gap    []float64 // max_c ΔP_i(c) at the last probe
	drift  []uint64  // Σ of watched share changes since the last probe, in driftUnit
	choice []int32   // choices at the last collection
	count  []int32   // task counts at the last collection

	// Built on the second collection: the watch index (watchers of task k
	// are watch[watchOff[k]:watchOff[k+1]]), each user's skip limit
	// Eps − slack_i and static magnitude, and per-task scratch.
	watchOff []int32
	watch    []int32
	limit    []float64
	mag      []float64
	was      []int32 // count before this sync, or -1 when untouched

	b      [][]int // cached B_i of requesters, exact-size
	bRoute []int32 // the route b[i] was built for

	evs     []*core.Evaluator
	probes  []int32 // scratch: users to probe this collection
	touched []int32 // scratch: tasks walked by this sync's movers
	tmp     []int   // scratch: a B before it is copied out
	users   []core.UserID
}

// collect returns this slot's update requests: every user whose Δ_i is
// nonempty, in user order, with a proposed route drawn uniformly from Δ_i
// (Algorithm 1 line 14). withMeta also fills each request's τ_i and B_i.
func (c *collector) collect(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	span := telemetry.StartSpan(collectDuration)
	defer span.End()
	users := c.requesters(p)
	reqs := make([]Request, len(users))
	for j, i := range users {
		route := c.delta[c.off[i]+int32(s.Intn(int(c.nd[i])))]
		reqs[j] = Request{User: i, Route: int(route)}
	}
	if withMeta {
		for j := range reqs {
			r := &reqs[j]
			// ΔP_i(c)/α_i: the value and the division of Profile.Tau.
			r.Tau = c.dp[int(c.off[r.User])+r.Route] / c.in.Users[r.User].Alpha
			r.B = c.moveTasks(p, r.User, r.Route)
		}
	}
	return reqs
}

// requesters returns the users whose Δ_i is nonempty, in user order,
// drawing nothing from any stream, and drops the cached B of every other
// user. The slice is reused by the next call.
func (c *collector) requesters(p *core.Profile) []core.UserID {
	c.refresh(p)
	c.users = c.users[:0]
	for i, n := range c.nd {
		if n > 0 {
			c.users = append(c.users, core.UserID(i))
		} else {
			c.b[i] = nil
		}
	}
	return c.users
}

// moveTasks returns B_i for the move i→route, from the cache when it holds
// that route. A cached B is dropped when its user moves or stops requesting.
func (c *collector) moveTasks(p *core.Profile, i core.UserID, route int) []int {
	if b := c.b[i]; b != nil && c.bRoute[i] == int32(route) {
		return b
	}
	c.tmp = p.AppendMoveTasks(c.tmp[:0], i, route)
	b := make([]int, len(c.tmp)) // exact size: appending to a B copies it
	copy(b, c.tmp)
	c.b[i], c.bRoute[i] = b, int32(route)
	return b
}

// refresh brings every user's Δ_i up to date with the profile.
func (c *collector) refresh(p *core.Profile) {
	if c.p != p {
		c.start(p)
		return
	}
	if c.watchOff == nil {
		c.buildIndex()
	}
	c.sync()
	c.probes = c.probes[:0]
	for i, d := range c.drift {
		if d == 0 {
			continue // reuse: a fresh probe would be bit-identical
		}
		if d != driftInf {
			x := math.Abs(c.in.Users[i].Alpha) * (float64(d) * driftUnit)
			if x <= c.mag[i] && c.gap[i]+x <= c.limit[i] {
				continue // Δ_i = ∅ still, and already cached as such
			}
		}
		c.probes = append(c.probes, int32(i))
	}
	c.probe(c.probes)
}

// start binds the collector to a profile and probes every user that has a
// choice to make.
func (c *collector) start(p *core.Profile) {
	in := p.Instance()
	n, nt := in.NumUsers(), in.NumTasks()
	*c = collector{
		p:      p,
		in:     in,
		off:    make([]int32, n+1),
		nd:     make([]int32, n),
		gap:    make([]float64, n),
		drift:  make([]uint64, n),
		choice: make([]int32, n),
		count:  make([]int32, nt),
		b:      make([][]int, n),
		bRoute: make([]int32, n),
	}
	for i, u := range in.Users {
		c.off[i+1] = c.off[i] + int32(len(u.Routes))
		c.choice[i] = int32(p.Choice(core.UserID(i)))
		if len(u.Routes) > 1 {
			c.probes = append(c.probes, int32(i))
		}
	}
	for k := range c.count {
		c.count[k] = int32(p.Count(task.ID(k)))
	}
	c.dp = make([]float64, c.off[n])
	c.delta = make([]int32, c.off[n])
	c.probe(c.probes)
}

// sync applies the moves made since the last collection, by the policy or
// anyone else: each changed task count adds the largest change of its two
// shares to every watcher's drift, and each mover is marked for a re-probe.
func (c *collector) sync() {
	in := c.in
	touch := func(k task.ID, d int32) {
		if c.was[k] < 0 {
			c.was[k] = c.count[k]
			c.touched = append(c.touched, int32(k))
		}
		c.count[k] += d
	}
	c.touched = c.touched[:0]
	for i := range c.choice {
		now := int32(c.p.Choice(core.UserID(i)))
		if now == c.choice[i] {
			continue
		}
		routes := in.Users[i].Routes
		for _, k := range routes[c.choice[i]].Tasks {
			touch(k, -1)
		}
		for _, k := range routes[now].Tasks {
			touch(k, +1)
		}
		c.choice[i] = now
		c.b[i] = nil
		c.drift[i] = driftInf // always re-probe a mover
	}
	for _, k := range c.touched {
		n0, n1 := int(c.was[k]), int(c.count[k])
		c.was[k] = -1
		if n0 == n1 {
			continue
		}
		q := shareDrift(in.Tasks[k], n0, n1)
		for _, u := range c.watch[c.watchOff[k]:c.watchOff[k+1]] {
			if d := c.drift[u] + q; d >= q {
				c.drift[u] = d
			} else {
				c.drift[u] = driftInf
			}
		}
	}
}

// shareDrift bounds, in driftUnit and rounded up, how far task k's two
// cached shares w_k(n)/n and w_k(n+1)/(n+1) move when its count goes from
// n0 to n1. The margin of 2^-48 of the shares' magnitude covers the
// rounding of the subtractions and any last-bit difference between
// task.Share and the profile's memoized shares. It is never 0.
func shareDrift(t task.Task, n0, n1 int) uint64 {
	now0, now1 := t.Share(n0), t.Share(n1)
	join0, join1 := t.Share(n0+1), t.Share(n1+1)
	d := max(math.Abs(now1-now0), math.Abs(join1-join0)) +
		(math.Abs(now0)+math.Abs(now1)+math.Abs(join0)+math.Abs(join1))*0x1p-48
	x := d / driftUnit
	if !(x < 0x1p62) { // also catches NaN
		return driftInf
	}
	return uint64(x) + 1
}

// probe re-evaluates ΔP_i(c) on every route of the listed users and
// resets their drift. At collectParallelMin users or more the probes fan
// out over parallel shards, each with its own core.Evaluator: user j of
// the list goes to shard j mod shards, and each user's cache slots are
// written by its shard alone, so the outcome never depends on scheduling.
func (c *collector) probe(users []int32) {
	if len(users) < collectParallelMin {
		collectSequential.Inc()
		ev := c.evaluators(1)[0]
		for _, i := range users {
			c.probeUser(ev, i)
		}
		return
	}
	collectParallel.Inc()
	shards := min(parallel.DefaultWorkers(), (len(users)+31)/32) // ≥32 users per shard
	evs := c.evaluators(shards)
	// The shard body never errors; ForEach's error return is vacuous here.
	_ = parallel.ForEach(shards, shards, func(w int) error {
		for j := w; j < len(users); j += shards {
			c.probeUser(evs[w], users[j])
		}
		return nil
	})
}

// evaluators returns at least n evaluators on the collector's profile. They
// are made before any fan-out: the first one builds the instance's overlap
// masks, outside the parallel section.
func (c *collector) evaluators(n int) []*core.Evaluator {
	for len(c.evs) < n {
		c.evs = append(c.evs, c.p.NewEvaluator())
	}
	return c.evs
}

// probeUser caches ΔP_i(c) for every route c of user i, and Δ_i computed
// from them exactly as core's BestResponseSet does.
func (c *collector) probeUser(ev *core.Evaluator, i int32) {
	lo, cur := c.off[i], int(c.choice[i])
	dp := c.dp[lo:c.off[i+1]]
	delta := c.delta[lo:lo]
	best, gap := 0.0, math.Inf(-1)
	for r := range dp {
		if r == cur {
			dp[r] = 0
			continue
		}
		d := ev.ProfitDeltaIf(core.UserID(i), r)
		dp[r] = d
		gap = max(gap, d) // NaN sticks, and a NaN gap never skips
		switch {
		case d > best+core.Eps:
			best = d
			delta = append(delta[:0], int32(r))
		case d > core.Eps && d >= best-core.Eps && len(delta) > 0:
			delta = append(delta, int32(r))
		}
	}
	c.nd[i] = int32(len(delta))
	c.gap[i] = gap
	c.drift[i] = 0
}

// buildIndex builds the watch index and every user's skip limit. For user
// i, with w_i watched task slots, it takes the static magnitude
//
//	M_i = α_i·Σ_watched (|a_k|+|µ_k|) + 2β_i·max_r d(r) + 2γ_i·max_r b(r),
//
// which bounds |ΔP_i(c)| for every c (a share is at most |a_k|+|µ_k|,
// because ln q ≤ q), and the slack γ_n·(M_i+Eps) with n = 2w_i+16, which
// bounds the rounding of two probes and of the skip test itself.
func (c *collector) buildIndex() {
	in := c.in
	nt := len(in.Tasks)
	c.watchOff = make([]int32, nt+1)
	c.limit = make([]float64, len(in.Users))
	c.mag = make([]float64, len(in.Users))
	c.was = make([]int32, nt)
	for k := range c.was {
		c.was[k] = -1
	}
	w := newWatchScan(nt)
	for i := range in.Users {
		u := &in.Users[i]
		var sum, slots float64
		w.scan(u, func(k task.ID, m int32) {
			c.watchOff[k+1] += m
			t := in.Tasks[k]
			sum += float64(m) * (math.Abs(t.A) + math.Abs(t.Mu))
			slots += float64(m)
		})
		var maxD, maxC float64
		for _, r := range u.Routes {
			maxD = max(maxD, math.Abs(in.DetourCost(r)))
			maxC = max(maxC, math.Abs(in.CongestionCost(r)))
		}
		c.mag[i] = math.Abs(u.Alpha)*sum + 2*math.Abs(u.Beta)*maxD + 2*math.Abs(u.Gamma)*maxC
		c.limit[i] = core.Eps - gammaN(2*slots+16)*(c.mag[i]+core.Eps)
	}
	for k := 0; k < nt; k++ {
		c.watchOff[k+1] += c.watchOff[k]
	}
	c.watch = make([]int32, c.watchOff[nt])
	fill := append([]int32(nil), c.watchOff[:nt]...)
	for i := range in.Users {
		w.scan(&in.Users[i], func(k task.ID, m int32) {
			for ; m > 0; m-- {
				c.watch[fill[k]] = int32(i)
				fill[k]++
			}
		})
	}
}

// gammaN is the classic rounding-error factor γ_n = n·u/(1−n·u), u = 2^-53.
func gammaN(n float64) float64 {
	nu := n * 0x1p-53
	return nu / (1 - nu)
}

// watchScan lists a user's watched tasks: the tasks on some, but not all,
// of its routes, each with the most times one route lists it (1 on a
// validated instance).
type watchScan struct {
	user, route []int32 // stamps: last user / route that saw task k
	routes      []int32 // routes of the current user listing k
	occ, mult   []int32 // k's listings on the current route / most on one
	union       []task.ID
	u, r        int32
}

func newWatchScan(nt int) *watchScan {
	return &watchScan{
		user: make([]int32, nt), route: make([]int32, nt), routes: make([]int32, nt),
		occ: make([]int32, nt), mult: make([]int32, nt),
	}
}

func (w *watchScan) scan(u *core.User, fn func(k task.ID, m int32)) {
	w.u++
	w.union = w.union[:0]
	for _, rt := range u.Routes {
		w.r++
		for _, k := range rt.Tasks {
			if w.user[k] != w.u {
				w.user[k], w.routes[k], w.mult[k] = w.u, 0, 0
				w.union = append(w.union, k)
			}
			if w.route[k] != w.r {
				w.route[k], w.occ[k] = w.r, 0
				w.routes[k]++
			}
			w.occ[k]++
			w.mult[k] = max(w.mult[k], w.occ[k])
		}
	}
	for _, k := range w.union {
		if int(w.routes[k]) < len(u.Routes) {
			fn(k, w.mult[k])
		}
	}
}
