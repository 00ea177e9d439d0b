package core

import (
	"math/bits"

	"repro/internal/task"
)

// Index is the integer type of the task entries and route indices the move
// kernel and the Δ_i rule read. A route's task entries are task IDs on the
// engine's profile and indices into a dense per-user view on the
// platform's agents; either way an entry indexes the share caches the
// kernel is handed.
type Index interface{ ~int | ~int32 }

// MoveRoute is one route as the move kernel reads it: its task entries and
// its detour and congestion costs d(r) = φ·h(r) and b(r) = θ·c(r) (Eqs. 3–4).
type MoveRoute[K Index] struct {
	Tasks              []K
	Detour, Congestion float64
}

// MoveShares returns the two shares of task t at participant count n that
// the move kernel reads: now = w(n)/n, held by a user on the task, and
// join = w(n+1)/(n+1), the share of a user joining it. They are
// bit-identical to a profile's share caches at that count.
func MoveShares(t task.Task, n int) (now, join float64) { return t.Share(n), t.Share(n + 1) }

// ShiftShares returns MoveShares(t, n) given the pair (now, join) that
// MoveShares gave at count old. A count that moved by one reuses one of
// the pair — w(n)/n is the old join at n = old+1, and w(n+1)/(n+1) the old
// now at n = old−1 — and Share is a pure function of the count, so the
// result is bit-identical.
func ShiftShares(t task.Task, old, n int, now, join float64) (float64, float64) {
	switch n {
	case old + 1:
		return join, t.Share(n + 1)
	case old - 1:
		return t.Share(n), now
	}
	return MoveShares(t, n)
}

// Shares are the share caches the move kernel reads, indexed like the
// routes' task entries: Now[k] = w_k(n_k)/n_k, held by a user on task k,
// and Join[k] = w_k(n_k+1)/(n_k+1), the share of a user joining it, with
// the counts n_k including the mover on its current route.
type Shares struct {
	Now, Join []float64
}

// MoveView is one user's side of the move kernel: its weights α, β, γ,
// its routes, their overlap masks (see RouteMasks), and the share caches.
// A probe builds it once per user and hands the kernel one pointer to it;
// at eight words it is copied without a block move.
type MoveView[K Index] struct {
	Alpha, Beta, Gamma float64
	Routes             []MoveRoute[K]
	Masks              *RouteMasks
	Shares             *Shares
}

// Delta is the Eq. 2 move kernel: the profit change of the user's
// unilateral move from route cur to route cand,
//
//	ΔP = α·( Σ_{k∈L'\L} Join[k] − Σ_{k∈L\L'} Now[k] )
//	     − β·(d(r')−d(r)) − γ·(b(r')−b(r)),
//
// summed over the symmetric difference of the two routes only. The clear
// bits of cand's overlap mask against cur name the tasks the user would
// join, walked in candidate order; those of cur's mask against cand the
// tasks it would leave, in current order.
//
// Profile.ProfitDeltaIf and the platform's agents both evaluate moves here,
// so the engine and the distributed runtime agree on every τ bit.
func (v *MoveView[K]) Delta(cur, cand int) float64 {
	r, c := &v.Routes[cur], &v.Routes[cand]
	var d float64
	tasks, share := c.Tasks, v.Shares.Join
	for w, word := range v.Masks.Mask(cur, cand, len(tasks)) {
		for x := ^word; x != 0; x &= x - 1 { // k ∈ L'\L: the user would join
			d += share[tasks[w<<6|bits.TrailingZeros64(x)]]
		}
	}
	tasks, share = r.Tasks, v.Shares.Now
	for w, word := range v.Masks.Mask(cand, cur, len(tasks)) {
		for x := ^word; x != 0; x &= x - 1 { // k ∈ L\L': the user would leave
			d -= share[tasks[w<<6|bits.TrailingZeros64(x)]]
		}
	}
	return v.Alpha*d - v.Beta*(c.Detour-r.Detour) - v.Gamma*(c.Congestion-r.Congestion)
}

// AppendMoveTasksOf appends B_i for the move cur→cand to dst: every task of
// cur, then the tasks of cand whose bit in join (cand's overlap mask
// against cur) is clear, in candidate order — the join walk of
// MoveView.Delta.
func AppendMoveTasksOf[D, K Index](dst []D, cur, cand []K, join []uint64) []D {
	for _, k := range cur {
		dst = append(dst, D(k))
	}
	for w, word := range join {
		for x := ^word; x != 0; x &= x - 1 {
			dst = append(dst, D(cand[w<<6|bits.TrailingZeros64(x)]))
		}
	}
	return dst
}

// BestResponseSetOf writes Δ_i into dst[:0] and returns it: the routes
// c ≠ cur whose move gain dp[c] = ΔP_i(c) is a strict improvement (above
// Eps) and within Eps of the best gain found so far, walked in route order;
// a gain more than Eps above that best restarts the set. dp[cur] is not
// read. It is empty when no route improves on cur (Definition 1).
func BestResponseSetOf[R Index](dst []R, dp []float64, cur int) []R {
	dst = dst[:0]
	var best float64 // best improvement so far; 0 = the current choice
	for c, d := range dp {
		if c == cur {
			continue
		}
		switch {
		case d > best+Eps:
			best = d
			dst = append(dst[:0], R(c))
		case d > Eps && d >= best-Eps && len(dst) > 0:
			dst = append(dst, R(c))
		}
	}
	return dst
}
