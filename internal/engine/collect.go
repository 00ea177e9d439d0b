package engine

import (
	"fmt"
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

// collectParallelMin is the work a collection knows of before its pass —
// the drift pushes of the watcher classes whose drift changed plus the
// users marked for a re-probe — at which the pass fans its shards out over
// goroutines.
// Below it the fan-out costs more than the pass, and the shards run one
// after another on the calling goroutine. A package variable so tests can
// force either path.
var collectParallelMin = 96

// collector gathers one run's update requests slot after slot (Algorithm 1
// lines 10–14). It keeps every user's last exact probe — ΔP_i(c) for each
// route c, and the best response set Δ_i drawn from it — and, between
// collections, re-probes only the users whose Δ_i may have changed:
//
//   - a user whose route moved is always re-probed;
//   - a user whose drift is within its tolerance keeps its probe: drift 0
//     (none of its watched tasks changed count since its last probe) reuses
//     it bit-identically, as shares are a pure function of counts, and a
//     user whose last probe gave Δ_i = ∅ keeps Δ_i = ∅ while its drift is
//     at most core.SkipBound.Tolerance of its largest cached ΔP_i(c);
//   - on the bounded path (selectPUU) only, a certified user — one whose
//     cached Δ_i = {c*} stands at every ΔP_i within X_i = α_i·drift_i +
//     slack_i of the cached one — keeps Δ_i = {c*} without a probe; its
//     ΔP_i(c*), and so its δ, is then known only to within X_i;
//   - every other user is re-probed.
//
// Drift and tolerances live in a core.DriftTracker, the platform's too: a
// user is probed again exactly when its drift exceeds its tolerance, and
// drift is pushed once per changed watcher class. The derivation of the
// skip and certification rules and their slack is in ALGORITHMS.md,
// "Incremental request collection".
//
// Each collection runs as one pass over the tracker's W contiguous user
// ranges, the shards, W fixed when the collector binds to its profile:
// sync works out serially which tasks changed count and hands them to the
// tracker, then every shard pushes the drift into its own users, applies
// the skip rules to them and re-probes the rest with its own
// core.Evaluator. Every per-user slot (drift, tolerance, dp, delta, nd) is
// written by exactly one shard, drift sums are exact integers whose
// saturating adds commute, and a probe's value does not depend on the
// evaluator that runs it, so the outcome is the same whether the shards
// run inline or in parallel, and whatever W is.
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
	choice []int32 // choices at the last collection
	count  []int32 // task counts at the last collection

	// Each user's drift since its last probe and the tolerance of that
	// probe; shard w of the tracker probes with evs[w], and probed[w] is how
	// many users it probed in the last pass. probes is the users probed by
	// the last collection, over the shards and, on the bounded path, the
	// selection's refinements.
	tr      *core.DriftTracker
	evs     []*core.Evaluator
	probed  []int32
	probes  int
	certify bool // the pass may certify requesters (the bounded path)

	// Built on the second collection, with the tracker's watcher classes:
	// each user's skip bound, and per-task scratch.
	skip []core.SkipBound
	was  []int32 // count before this sync, or -1 when untouched

	b      [][]int // cached B_i of requesters, exact-size
	bRoute []int32 // the route b[i] was built for

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
	users := c.requesters(p, false)
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
// user. The slice is reused by the next call. With certify, a certified
// requester keeps its stale ΔP_i (see collector).
func (c *collector) requesters(p *core.Profile, certify bool) []core.UserID {
	c.refresh(p, certify)
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

// selectPUU is a PUU slot on the bounded path: it collects this slot's
// requests as collect(p, s, true) would, but lets certified requesters
// stand unprobed, and admits Algorithm 3's winners through admitPUU, which
// refines — re-probes — a certified requester only when the selection
// needs its exact δ. It returns the number of requesters and the
// winners, each with its exact τ: SelectPUU(collect(p, s, true)) bit for
// bit, drawing the same routes from s.
func (c *collector) selectPUU(p *core.Profile, s *rng.Stream) (int, []Request) {
	span := telemetry.StartSpan(collectDuration)
	users := c.requesters(p, true)
	reqs := make([]Request, len(users))
	for j, i := range users {
		route := int(c.delta[c.off[i]+int32(s.Intn(int(c.nd[i])))])
		reqs[j] = Request{User: i, Route: route, B: c.moveTasks(p, i, route)}
	}
	span.End()
	keys := make([]puuKey, len(reqs))
	for j := range reqs {
		keys[j] = c.key(j, &reqs[j])
	}
	return len(reqs), admitPUU(reqs, keys, func(j int) float64 { return c.refine(&reqs[j]) })
}

// key returns request j's selection key: its exact δ, setting r.Tau, when
// its user was probed at drift 0; otherwise an upper bound on δ. The
// certified user's fresh ΔP_i(c*) is a float within x = X_i, as computed
// here, of the cached dp (ALGORITHMS.md, "The δ bound"). Rounding is
// monotone and leaves floats fixed, so it is at most fl(dp + x) and at
// least fl(dp − x), and δ's own divisions applied to the endpoint that
// α_i's sign makes the larger bound δ from above.
func (c *collector) key(j int, r *Request) puuKey {
	i := r.User
	d, alpha := c.dp[int(c.off[i])+r.Route], c.in.Users[i].Alpha
	drift := c.tr.Drift[i]
	if drift == 0 {
		r.Tau = d / alpha
		return puuKey{r.delta(), int32(j), true}
	}
	x := c.skip[i].Spread(drift) + c.skip[i].Slack
	hi := (d + x) / alpha
	if alpha < 0 {
		hi = (d - x) / alpha
	}
	if len(r.B) == 0 {
		hi = math.Inf(1)
	} else {
		hi /= float64(len(r.B))
	}
	return puuKey{hi, int32(j), false}
}

// refine re-probes a certified requester and returns its exact δ, setting
// r.Tau. Certification guarantees the probe keeps Δ_i = {r.Route}; a probe
// that does not would make the bounded path diverge from the exact one.
func (c *collector) refine(r *Request) float64 {
	i := int32(r.User)
	c.probeUser(c.evs[0], i)
	c.probes++
	if lo := c.off[i]; c.nd[i] != 1 || int(c.delta[lo]) != r.Route {
		panic(fmt.Sprintf("engine: certified user %d changed its best response set", i))
	}
	r.Tau = c.dp[int(c.off[i])+r.Route] / c.in.Users[i].Alpha
	return r.delta()
}

// refresh brings every user's Δ_i up to date with the profile: a serial
// sync, then the sharded pass, which may certify requesters.
func (c *collector) refresh(p *core.Profile, certify bool) {
	var work int
	if c.p != p {
		work = c.start(p)
	} else {
		if c.skip == nil {
			c.buildIndex()
		}
		work = c.sync()
	}
	c.probes = 0
	c.certify = certify
	c.pass(work)
	c.certify = false
	c.tr.Clear()
}

// start binds the collector to a profile, fixes its shards, and marks every
// user that has a choice to make for a probe. It returns the number marked.
func (c *collector) start(p *core.Profile) int {
	in := p.Instance()
	n, nt := in.NumUsers(), in.NumTasks()
	w := parallel.DefaultWorkers()
	*c = collector{
		p:      p,
		in:     in,
		off:    make([]int32, n+1),
		nd:     make([]int32, n),
		choice: make([]int32, n),
		count:  make([]int32, nt),
		tr:     core.NewDriftTracker(n, w),
		probed: make([]int32, w),
		b:      make([][]int, n),
		bRoute: make([]int32, n),
	}
	for range w {
		c.evs = append(c.evs, p.NewEvaluator())
	}
	marked := 0
	for i, u := range in.Users {
		c.off[i+1] = c.off[i] + int32(len(u.Routes))
		c.choice[i] = int32(p.Choice(core.UserID(i)))
		if len(u.Routes) > 1 {
			c.tr.Drift[i] = core.DriftInf
			marked++
		}
	}
	for k := range c.count {
		c.count[k] = int32(p.Count(task.ID(k)))
	}
	c.dp = make([]float64, c.off[n])
	c.delta = make([]int32, c.off[n])
	return marked
}

// sync applies the moves made since the last collection, by the policy or
// anyone else: it updates the task counts, marks each mover for a re-probe,
// and hands the tracker each task whose count changed, for the pass to
// push its share drift into its watchers. It returns the pass's known
// work: the drift pushes plus the movers.
func (c *collector) sync() int {
	in := c.in
	touch := func(k task.ID, d int32) {
		if c.was[k] < 0 {
			c.was[k] = c.count[k]
			c.touched = append(c.touched, int32(k))
		}
		c.count[k] += d
	}
	work := 0
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
		c.tr.Drift[i] = core.DriftInf // always re-probe a mover
		work++
	}
	for _, k := range c.touched {
		c.tr.Moved(task.ID(k), int(c.was[k]), int(c.count[k]))
		c.was[k] = -1
	}
	return work + c.tr.Pending()
}

// pass runs every shard once: inline below collectParallelMin units of
// known work, else one goroutine per shard.
func (c *collector) pass(work int) {
	if work < collectParallelMin {
		collectSequential.Inc()
		for w := range c.evs {
			c.shard(w)
		}
	} else {
		collectParallel.Inc()
		// The shard body never errors; ForEach's error return is vacuous here.
		_ = parallel.ForEach(len(c.evs), len(c.evs), func(w int) error {
			c.shard(w)
			return nil
		})
	}
	for _, n := range c.probed {
		c.probes += int(n)
	}
}

// shard runs shard w's part of a pass: it pushes this sync's drift into
// its users, then re-probes those of its users whose Δ_i may have changed
// — a drift above the tolerance that certification cannot cover either.
func (c *collector) shard(w int) {
	tr := c.tr
	tr.Push(w)
	ev, n := c.evs[w], int32(0)
	lo, hi := tr.Shard(w)
	for i := lo; i < hi; i++ {
		if !tr.Due(i) {
			continue // drift 0 reuses the probe; Δ_i = ∅ still, cached as such
		}
		if d := tr.Drift[i]; c.certify && d != core.DriftInf {
			b := &c.skip[i]
			if c.certified(int32(i), b.Spread(d)+b.Slack) {
				continue // Δ_i = {c*} still; ΔP_i(c*) known to within X_i
			}
		}
		c.probeUser(ev, int32(i))
		n++
	}
	c.probed[w] = n
}

// certified reports whether user i's cached Δ_i = {c*} holds for every
// ΔP_i within x = X_i of the cached values: ΔP_i(c*) − x > Eps, and every
// other route c ≠ cur has ΔP_i(c) < ΔP_i(c*) − x − Eps − x. Then every
// probe since keeps Δ_i = {c*} (ALGORITHMS.md has the rounding budget). A
// NaN anywhere fails the test.
func (c *collector) certified(i int32, x float64) bool {
	if c.nd[i] != 1 {
		return false
	}
	lo, hi := c.off[i], c.off[i+1]
	dp, cur, best := c.dp[lo:hi], int(c.choice[i]), int(c.delta[lo])
	floor := dp[best] - x
	if !(floor > core.Eps) {
		return false
	}
	limit := floor - core.Eps - x
	for r, d := range dp {
		if r != cur && r != best && !(d < limit) {
			return false
		}
	}
	return true
}

// probeUser caches ΔP_i(c) for every route c of user i, and Δ_i computed
// from them by core's Δ_i rule, as core's BestResponseSet does, and records
// the probe with the tracker.
func (c *collector) probeUser(ev *core.Evaluator, i int32) {
	lo, hi, cur := c.off[i], c.off[i+1], int(c.choice[i])
	dp := c.dp[lo:hi]
	ev.ProfitDeltas(core.UserID(i), dp)
	delta := core.BestResponseSetOf(c.delta[lo:lo:hi], dp, cur)
	c.nd[i] = int32(len(delta))
	c.tr.Answered(int(i), c.tolerance(i))
}

// tolerance returns the drift up to which user i's cached probe stands
// without certification: a requester's stands at drift 0 alone (its gap
// exceeds Eps, so the skip rule fails at drift 1), and a Δ_i = ∅ probe's
// up to its skip bound's tolerance. Before the skip bounds are built, on
// the first collection, it returns 0, and buildIndex sets the tolerances.
func (c *collector) tolerance(i int32) uint64 {
	if c.nd[i] > 0 || c.skip == nil {
		return 0
	}
	return c.skip[i].Tolerance(core.Gap(c.dp[c.off[i]:c.off[i+1]], int(c.choice[i])))
}

// buildIndex builds the tracker's watcher classes, every user's skip bound
// (core.NewSkipBound), and the tolerance of every probe the first
// collection cached. It runs before the second collection's sync, so the
// cached probes and choices still match.
func (c *collector) buildIndex() {
	in := c.in
	c.tr.Index(in, nil)
	c.skip = make([]core.SkipBound, len(in.Users))
	c.was = make([]int32, len(in.Tasks))
	for k := range c.was {
		c.was[k] = -1
	}
	w := core.NewWatchScan(len(in.Tasks))
	var routes []core.MoveRoute[task.ID]
	for i := range in.Users {
		u := &in.Users[i]
		routes = routes[:0]
		for _, r := range u.Routes {
			routes = append(routes, core.MoveRoute[task.ID]{Tasks: r.Tasks, Detour: in.DetourCost(r), Congestion: in.CongestionCost(r)})
		}
		c.skip[i] = core.NewSkipBound(w, u.Alpha, u.Beta, u.Gamma, routes, func(k task.ID) task.Task { return in.Tasks[k] })
		c.tr.Tol[i] = c.tolerance(int32(i))
	}
}
