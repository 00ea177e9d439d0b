package core

import (
	"math"
	"slices"

	"repro/internal/task"
)

// This file is the one home of the drift bound that lets a best response
// go unasked, and of the one tracker that applies it: the engine's request
// collector skips a user with a DriftTracker, and the platform leaves an
// agent silent with one. Between two probes of a user, every task it
// watches whose count moved adds a share drift to the user's drift
// counter; a user whose last probe gave Δ_i = ∅ keeps Δ_i = ∅ while that
// drift stays within the tolerance of its skip bound (ALGORITHMS.md,
// "Incremental request collection" and "Certified silence").

// DriftUnit is the fixed-point unit of drift counters: 2^-32 profit-share
// units, so drift sums are exact integer additions.
const DriftUnit = 0x1p-32

// DriftInf marks a drift too large to bound; it forces a re-probe.
const DriftInf = math.MaxUint64

// shareDrift bounds, in DriftUnit and rounded up, how far task t's two
// cached shares w(n)/n and w(n+1)/(n+1) move when its count goes from n0
// to n1. The margin of 2^-48 of the shares' magnitude covers the rounding
// of the subtractions and any last-bit difference between task.Share and
// the profile's memoized shares. It is never 0.
func shareDrift(t task.Task, n0, n1 int) uint64 {
	now0, now1 := t.Share(n0), t.Share(n1)
	join0, join1 := t.Share(n0+1), t.Share(n1+1)
	d := max(math.Abs(now1-now0), math.Abs(join1-join0)) +
		(math.Abs(now0)+math.Abs(now1)+math.Abs(join0)+math.Abs(join1))*0x1p-48
	x := d / DriftUnit
	if !(x < 0x1p62) { // also catches NaN
		return DriftInf
	}
	return uint64(x) + 1
}

// addSat is a + b, or DriftInf when the sum overflows. Saturating adds of
// non-negative integers are associative and commutative, so drift summed
// in any grouping is the same.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= b {
		return s
	}
	return DriftInf
}

// Gap returns the largest ΔP_i(c) over the routes c ≠ cur: -Inf for a
// user with one route, and NaN when any of them is NaN (a NaN gap never
// skips).
func Gap(dp []float64, cur int) float64 {
	gap := math.Inf(-1)
	for c, d := range dp {
		if c != cur {
			gap = max(gap, d) // NaN sticks
		}
	}
	return gap
}

// SkipBound is the static part of one user's skip rule: |α_i|, the
// magnitude M_i that bounds every |ΔP_i(c)| and every magnitude in its
// evaluation, and the rounding slack γ_n·(M_i + Eps).
type SkipBound struct {
	Alpha, Mag, Slack float64
}

// NewSkipBound returns the skip bound of a user with weights α, β, γ and
// the given routes, whose task entries index tasks(k)'s reward
// parameters; w scans the user's watched tasks. With w_i watched task
// slots (a task counted as often as one route lists it),
//
//	M_i = α_i·Σ_watched (|a_k|+|µ_k|) + 2β_i·max_r d(r) + 2γ_i·max_r b(r),
//
// which bounds |ΔP_i(c)| for every c (a share is at most |a_k|+|µ_k|,
// because ln q ≤ q), and the slack is γ_n·(M_i+Eps) with n = 2w_i+16,
// which bounds, per route, the rounding of two probes and of the skip and
// certification tests.
func NewSkipBound[K Index](w *WatchScan, alpha, beta, gamma float64, routes []MoveRoute[K], tasks func(K) task.Task) SkipBound {
	var sum, slots float64
	scanWatched(w, routes, func(k K, m int32) {
		t := tasks(k)
		sum += float64(m) * (math.Abs(t.A) + math.Abs(t.Mu))
		slots += float64(m)
	})
	var maxD, maxC float64
	for _, r := range routes {
		maxD = max(maxD, math.Abs(r.Detour))
		maxC = max(maxC, math.Abs(r.Congestion))
	}
	mag := math.Abs(alpha)*sum + 2*math.Abs(beta)*maxD + 2*math.Abs(gamma)*maxC
	return SkipBound{Alpha: math.Abs(alpha), Mag: mag, Slack: gammaN(2*slots+16) * (mag + Eps)}
}

// gammaN is the classic rounding-error factor γ_n = n·u/(1−n·u), u = 2^-53.
func gammaN(n float64) float64 {
	nu := n * 0x1p-53
	return nu / (1 - nu)
}

// Spread is |α_i|·d for a finite drift d: how far the exact value of any
// ΔP_i(c) can have moved since the user's last probe.
func (b *SkipBound) Spread(d uint64) float64 {
	return b.Alpha * (float64(d) * DriftUnit)
}

// skips is the whole skip rule of a user whose last probe gave Δ_i = ∅
// with largest ΔP_i gap, at drift d: drift 0 reuses the probe (a fresh one
// would be bit-identical), DriftInf always re-probes, and any other drift
// skips when every ΔP_i, moved by x = Spread(d), stays quiet: every fresh
// ΔP_i(c) ≤ gap + x + slack ≤ Eps. The clause x ≤ M_i keeps the test's
// own rounding within the slack. It is monotone: it holds for every drift
// up to Tolerance(gap) and for none above.
func (b *SkipBound) skips(gap float64, d uint64) bool {
	switch d {
	case 0:
		return true
	case DriftInf:
		return false
	}
	x := b.Spread(d)
	return x <= b.Mag && gap+x <= Eps-b.Slack
}

// Tolerance returns the largest drift T at which skips(gap, T) holds; T <
// DriftInf, so skips(gap, T+1) fails. Spread is monotone in the drift and
// the test in the spread (rounding to nearest is monotone), so the drifts
// that skip are a prefix of the integers. T is estimated by division —
// the drift at which x reaches Eps − slack − gap or M_i — and the estimate
// is then corrected against skips itself: a gallop from it, doubling its
// step, brackets T, and a bisection of the bracket finds it. The estimate
// is off by rounding only, so the correction is a call or two of skips
// (more where fl(d) is coarser than one drift unit, d > 2^53).
func (b *SkipBound) Tolerance(gap float64) uint64 {
	lim := Eps - b.Slack
	if !(gap <= lim) {
		return 0 // a NaN gap, or one no drift > 0 keeps quiet
	}
	t := uint64(DriftInf - 1) // α = 0 never drifts
	if unit := b.Alpha * DriftUnit; unit != 0 {
		switch est := min((lim-gap)/unit, b.Mag/unit); {
		case !(est >= 0): // NaN: no estimate
			t = 0
		case est < 0x1p64:
			t = min(uint64(est), DriftInf-1)
		}
	}
	lo, hi := uint64(0), uint64(DriftInf) // skips(lo) holds, skips(hi) fails
	up := b.skips(gap, t)
	if up {
		lo = t
	} else {
		hi = t
	}
	for step := uint64(1); hi-lo > step; step <<= 1 {
		d := hi - step
		if up {
			d = lo + step
		}
		ok := b.skips(gap, d)
		if ok {
			lo = d
		} else {
			hi = d
		}
		if ok != up {
			break // d crossed T
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if b.skips(gap, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// WatchScan lists users' watched tasks: the tasks on some, but not all, of
// a user's routes. Only those enter a ΔP_i(c), since a task on every route
// cancels out of every symmetric difference. One scan serves many users
// over task entries in [0, n) without clearing.
type WatchScan struct {
	at    []watchStamp
	union []int32
	u, r  int32
}

// watchStamp is what a WatchScan knows of one task entry k.
type watchStamp struct {
	user, route int32 // stamps: last user / route that saw k
	routes      int32 // routes of the current user listing k
	occ, mult   int32 // k's listings on the current route / most on one
}

// NewWatchScan returns a scan over task entries in [0, n).
func NewWatchScan(n int) *WatchScan {
	return &WatchScan{at: make([]watchStamp, n), union: make([]int32, 0, n)}
}

// scanWatched calls fn with each watched task entry of a user with the
// given routes, in order of first appearance, and the most times one
// route lists it (1 on a validated instance).
func scanWatched[K Index](w *WatchScan, routes []MoveRoute[K], fn func(k K, m int32)) {
	w.u++
	w.union = w.union[:0]
	for _, rt := range routes {
		w.r++
		for _, k := range rt.Tasks {
			at := &w.at[k]
			if at.user != w.u {
				*at = watchStamp{user: w.u}
				w.union = append(w.union, int32(k))
			}
			if at.route != w.r {
				at.route, at.occ = w.r, 0
				at.routes++
			}
			at.occ++
			at.mult = max(at.mult, at.occ)
		}
	}
	for _, k := range w.union {
		if at := &w.at[k]; int(at.routes) < len(routes) {
			fn(K(k), at.mult)
		}
	}
}

// watchIndex lists, for every task k, the listed users that watch it:
// watch[off[k]:off[k+1]] holds their positions in users, ascending, each
// as often as one of its routes lists k. nil users lists every user of
// in, so positions are user IDs. A count change of task k moves the
// ΔP_i of exactly these users. It scans the users twice, counting and
// then filling, so it allocates nothing beyond the index.
func watchIndex(in *Instance, users []int) (off, watch []int32) {
	n := len(users)
	if users == nil {
		n = len(in.Users)
	}
	w := NewWatchScan(len(in.Tasks))
	var routes []MoveRoute[task.ID]
	scan := func(li int, fn func(k task.ID, m int32)) {
		u := li
		if users != nil {
			u = users[li]
		}
		routes = routes[:0]
		for _, r := range in.Users[u].Routes {
			routes = append(routes, MoveRoute[task.ID]{Tasks: r.Tasks})
		}
		scanWatched(w, routes, fn)
	}
	off = make([]int32, len(in.Tasks)+1)
	for li := range n {
		scan(li, func(k task.ID, m int32) { off[k+1] += m })
	}
	for k := range in.Tasks {
		off[k+1] += off[k]
	}
	watch = make([]int32, off[len(in.Tasks)])
	fill := slices.Clone(off[:len(in.Tasks)]) // fill[k]: the next free slot of task k's watchers
	for li := range n {
		scan(li, func(k task.ID, m int32) {
			for ; m > 0; m-- {
				watch[fill[k]] = int32(li)
				fill[k]++
			}
		})
	}
	return off, watch
}

// DriftTracker is the drift bookkeeping of a list of users: the engine's
// request collector keeps one over every user, and a platform one over the
// users it serves. User i (a position in the list) is due — must be asked
// for a fresh best response — exactly when Drift[i] > Tol[i]. Drift[i]
// sums, in DriftUnit, the share drift of the tasks user i watches since
// its last answer, and Tol[i] is the drift up to which that answer
// provably stands: SkipBound.Tolerance for "no move", 0 for a request.
// Setting Drift[i] = DriftInf makes user i due whatever its tolerance.
//
// The users are split into contiguous shards. Tasks with the same watcher
// list (the same users, each as often) form one watcher class: Moved sums
// the share drift of each changed task into its class, every shard Pushes
// the changed classes' sums into its own users' drift, and Clear forgets
// the sums once every shard has pushed. A saturating add of non-negative
// integers is associative and commutative, so every user ends with the
// drift, bit for bit, that one push per changed task would leave. Push
// writes only its shard's users, so the shards may push concurrently.
type DriftTracker struct {
	Drift, Tol []uint64

	bound []int32 // shard w holds users bound[w] .. bound[w+1]

	// Built by Index: task k's watcher class class[k], and the watch
	// lists of the classes, split by shard — the watchers of class l in
	// shard w are watch[split[l·(W+1)+w] : split[l·(W+1)+w+1]].
	tasks []task.Task
	class []int32
	split []int32
	watch []int32
	sum   []uint64 // each class's summed share drift since the last Clear, 0 if none

	changed []int32 // the classes with a nonzero sum
}

// NewDriftTracker returns a tracker over n users, split into the given
// number of shards, with every drift and tolerance 0 and no watcher
// classes yet (see Index).
func NewDriftTracker(n, shards int) *DriftTracker {
	t := &DriftTracker{Drift: make([]uint64, n), Tol: make([]uint64, n), bound: make([]int32, shards+1)}
	for s := range t.bound {
		t.bound[s] = int32(s * n / shards)
	}
	return t
}

// Shard returns the users of shard w: lo .. hi−1.
func (t *DriftTracker) Shard(w int) (lo, hi int) { return int(t.bound[w]), int(t.bound[w+1]) }

// Due reports whether user i must be asked again.
func (t *DriftTracker) Due(i int) bool { return t.Drift[i] > t.Tol[i] }

// Answered records a fresh answer of user i, which stands up to drift tol.
func (t *DriftTracker) Answered(i int, tol uint64) {
	t.Drift[i], t.Tol[i] = 0, tol
}

// Index builds the watcher classes of the tracked users, who are users
// of in, nil meaning every user. Tasks with identical watcher lists share
// one class and one copy of the list, grouped by a hash of the list and an
// exact compare; a shard's watchers of a class are one run of its list,
// whose offsets are fixed here, once.
func (t *DriftTracker) Index(in *Instance, users []int) {
	nt := len(in.Tasks)
	off, watch := watchIndex(in, users) // task k's watchers are watch[off[k]:off[k+1]]
	// Group the tasks into classes, moving each class's list down over the
	// lists of the tasks before it: a list never moves up, so the lists
	// still to be read are intact.
	t.tasks = in.Tasks
	t.class = make([]int32, nt)
	head := make(map[uint64]int32, nt) // the newest class with a list hash
	var prev []int32                   // prev[l]: the class before l with l's hash, or -1
	starts := []int32{0}               // class l's list is watch[starts[l]:starts[l+1]]
	for k := range nt {
		list := watch[off[k]:off[k+1]]
		h := uint64(14695981039346656037) // FNV-1a over the user positions
		for _, u := range list {
			h = (h ^ uint64(uint32(u))) * 1099511628211
		}
		first, ok := head[h]
		if !ok {
			first = -1
		}
		l := first
		for l >= 0 && !slices.Equal(watch[starts[l]:starts[l+1]], list) {
			l = prev[l]
		}
		if l < 0 {
			l = int32(len(prev))
			head[h] = l
			prev = append(prev, first)
			end := starts[l]
			starts = append(starts, end+int32(copy(watch[end:], list)))
		}
		t.class[k] = l
	}
	nc := len(starts) - 1
	t.watch = slices.Clone(watch[:starts[nc]])
	t.sum = make([]uint64, nc)
	stride := len(t.bound)
	t.split = make([]int32, nc*stride)
	for l := range nc {
		list := t.watch[starts[l]:starts[l+1]]
		for s, b := range t.bound {
			n, _ := slices.BinarySearch(list, b)
			t.split[l*stride+s] = starts[l] + int32(n)
		}
	}
}

// Moved records that task k's count went from n0 to n1: it adds the
// task's shareDrift to its class's sum. A count that did not move adds
// nothing. The tracker must be indexed.
func (t *DriftTracker) Moved(k task.ID, n0, n1 int) {
	if n0 != n1 {
		t.add(k, shareDrift(t.tasks[k], n0, n1))
	}
}

// add adds q ≥ 1 to the sum of task k's class.
func (t *DriftTracker) add(k task.ID, q uint64) {
	l := t.class[k]
	if t.sum[l] == 0 {
		t.changed = append(t.changed, l)
	}
	t.sum[l] = addSat(t.sum[l], q)
}

// Pending returns how many drift adds the pushes of the summed drift
// make, over every shard.
func (t *DriftTracker) Pending() int {
	n, stride := 0, len(t.bound)
	for _, l := range t.changed {
		n += int(t.split[int(l)*stride+stride-1] - t.split[int(l)*stride])
	}
	return n
}

// Push adds each changed class's sum to the drift of its watchers in
// shard w.
func (t *DriftTracker) Push(w int) {
	stride := len(t.bound)
	for _, l := range t.changed {
		q, s := t.sum[l], int(l)*stride+w
		for _, u := range t.watch[t.split[s]:t.split[s+1]] {
			t.Drift[u] = addSat(t.Drift[u], q)
		}
	}
}

// Clear forgets the summed drift once every shard has pushed it.
func (t *DriftTracker) Clear() {
	for _, l := range t.changed {
		t.sum[l] = 0
	}
	t.changed = t.changed[:0]
}
