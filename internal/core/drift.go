package core

import (
	"math"
	"slices"

	"repro/internal/task"
)

// This file is the one home of the drift bound that lets a best response
// go unasked: the engine's request collector skips a user with it, and
// the platform leaves an agent silent with it. Between two probes of a
// user, every task it watches whose count moved adds a share drift to the
// user's drift counter; a user whose last probe gave Δ_i = ∅ keeps Δ_i = ∅
// while its skip bound holds at that drift (ALGORITHMS.md, "Incremental
// request collection" and "Certified silence").

// DriftUnit is the fixed-point unit of drift counters: 2^-32 profit-share
// units, so drift sums are exact integer additions.
const DriftUnit = 0x1p-32

// DriftInf marks a drift too large to bound; it forces a re-probe.
const DriftInf = math.MaxUint64

// ShareDrift bounds, in DriftUnit and rounded up, how far task t's two
// cached shares w(n)/n and w(n+1)/(n+1) move when its count goes from n0
// to n1. The margin of 2^-48 of the shares' magnitude covers the rounding
// of the subtractions and any last-bit difference between task.Share and
// the profile's memoized shares. It is never 0.
func ShareDrift(t task.Task, n0, n1 int) uint64 {
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

// AddSat is a + b, or DriftInf when the sum overflows. Saturating adds of
// non-negative integers are associative and commutative, so drift summed
// in any grouping is the same.
func AddSat(a, b uint64) uint64 {
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
	ScanWatched(w, routes, func(k K, m int32) {
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

// QuietAt reports whether a user whose last probe gave Δ_i = ∅ with
// largest ΔP_i gap keeps Δ_i = ∅ when every ΔP_i may have moved by
// x = Spread(drift): every fresh ΔP_i(c) ≤ gap + x + slack ≤ Eps. The
// clause x ≤ M_i keeps the test's own rounding within the slack.
func (b *SkipBound) QuietAt(gap, x float64) bool {
	return x <= b.Mag && gap+x <= Eps-b.Slack
}

// Skips is the whole skip rule of a user whose last probe gave Δ_i = ∅,
// at drift d: drift 0 reuses the probe (a fresh one would be
// bit-identical), DriftInf always re-probes, and any other drift skips
// when its spread is quiet. It is monotone: it holds for every drift up to
// Tolerance(gap) and for none above.
func (b *SkipBound) Skips(gap float64, d uint64) bool {
	switch d {
	case 0:
		return true
	case DriftInf:
		return false
	}
	return b.QuietAt(gap, b.Spread(d))
}

// Tolerance returns the largest drift T at which Skips(gap, T) holds; T <
// DriftInf, so Skips(gap, T+1) fails. Spread is monotone in the drift and
// QuietAt in the spread (rounding to nearest is monotone), so the drifts
// that skip are a prefix of the integers and a binary search finds its
// end.
func (b *SkipBound) Tolerance(gap float64) uint64 {
	lo, hi := uint64(0), uint64(DriftInf) // Skips(lo) holds, Skips(hi) fails
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if b.Skips(gap, mid) {
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

// ScanWatched calls fn with each watched task entry of a user with the
// given routes, in order of first appearance, and the most times one
// route lists it (1 on a validated instance).
func ScanWatched[K Index](w *WatchScan, routes []MoveRoute[K], fn func(k K, m int32)) {
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

// WatchIndex lists, for every task k, the listed users that watch it:
// watch[off[k]:off[k+1]] holds their positions in users, ascending, each
// as often as one of its routes lists k. nil users lists every user of
// in, so positions are user IDs. A count change of task k moves the
// ΔP_i of exactly these users. It scans the users twice, counting and
// then filling, so it allocates nothing beyond the index.
func WatchIndex(in *Instance, users []int) (off, watch []int32) {
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
		ScanWatched(w, routes, fn)
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
