package core

import (
	"fmt"

	"repro/internal/task"
)

// rebaseEvery bounds floating-point drift in the incrementally-maintained
// aggregates: after this many SetChoice calls the accumulators are
// recomputed from scratch. Together with compensated summation this keeps
// Potential/TotalProfit within well under Eps of a from-scratch evaluation
// over arbitrarily long move sequences, at amortized O((M+N)/rebaseEvery)
// per move.
const rebaseEvery = 4096

// Profile is a strategy profile s = (s_1, ..., s_M): one chosen route per
// user, together with the incrementally-maintained participant counts
// n_k(s). All profit and potential evaluations run against a Profile.
//
// Beyond the counts, a Profile caches everything needed to answer the hot
// queries of the decision-slot protocol in O(1) or O(|Δroutes|) instead of
// O(M·N): per-task participant alpha-sums, per-user detour/congestion cost
// terms, a memoized ln-table for w_k(q)/q shares, and compensated running
// sums of the weighted potential Φ (Eq. 8) and the total profit Σ_i P_i
// (Eq. 5), both updated by SetChoice on the symmetric difference of the old
// and new routes only.
type Profile struct {
	inst    *Instance
	choices []int // choices[i] indexes Users[i].Routes
	nk      []int // nk[k] = number of users whose chosen route covers task k

	memo *shareMemo // share table and overlap masks, shared with clones/evaluators

	// shares.Now[k] = w_k(n_k)/n_k and shares.Join[k] = w_k(n_k+1)/(n_k+1):
	// the share a user on task k holds now, and the share a user joining
	// it would get. SetChoice refreshes both on the tasks it walks, so a
	// probe reads a share instead of dividing for one.
	shares Shares

	// alphaSum[k] = Σ_{i: k ∈ L_si} α_i. With it, the reward part of
	// Σ_i P_i collapses to Σ_k alphaSum[k]·share_k(n_k), which a move
	// perturbs only on its touched tasks.
	alphaSum []float64
	// userCost[i] = β_i·d(s_i) + γ_i·b(s_i); userPotCost[i] is the same
	// with the Eq. 8 weights (β_i/α_i, γ_i/α_i).
	userCost    []float64
	userPotCost []float64

	potReward  kahan // Σ_k Σ_{q=1..n_k} w_k(q)/q
	potCost    kahan // Σ_i userPotCost[i]
	profReward kahan // Σ_k alphaSum[k]·share_k(n_k)
	profCost   kahan // Σ_i userCost[i]

	moves int // SetChoice calls since the last rebase

	ev evalState // probe state for this profile's own queries
}

// NewProfile builds a profile from per-user route indices. The slice is
// copied. It returns an error if any index is out of range.
func NewProfile(inst *Instance, choices []int) (*Profile, error) {
	if len(choices) != len(inst.Users) {
		return nil, fmt.Errorf("core: %d choices for %d users", len(choices), len(inst.Users))
	}
	p := &Profile{
		inst:        inst,
		choices:     append([]int(nil), choices...),
		nk:          make([]int, len(inst.Tasks)),
		memo:        newShareMemo(inst),
		shares:      Shares{Now: make([]float64, len(inst.Tasks)), Join: make([]float64, len(inst.Tasks))},
		alphaSum:    make([]float64, len(inst.Tasks)),
		userCost:    make([]float64, len(inst.Users)),
		userPotCost: make([]float64, len(inst.Users)),
	}
	p.ev.init(p)
	for i, c := range choices {
		u := inst.Users[i]
		if c < 0 || c >= len(u.Routes) {
			return nil, fmt.Errorf("core: user %d choice %d out of range [0,%d)", i, c, len(u.Routes))
		}
		for _, k := range u.Routes[c].Tasks {
			p.nk[k]++
		}
	}
	p.rebase()
	return p, nil
}

// rebase recomputes every cached aggregate from the instance and the
// current choices. It runs at construction and every rebaseEvery moves to
// reset accumulated floating-point drift.
func (p *Profile) rebase() {
	p.moves = 0
	for k := range p.alphaSum {
		p.alphaSum[k] = 0
	}
	p.potReward, p.potCost, p.profReward, p.profCost = kahan{}, kahan{}, kahan{}, kahan{}
	for i, u := range p.inst.Users {
		r := u.Routes[p.choices[i]]
		for _, k := range r.Tasks {
			p.alphaSum[k] += u.Alpha
		}
		d, b := p.inst.DetourCost(r), p.inst.CongestionCost(r)
		p.userCost[i] = u.Beta*d + u.Gamma*b
		p.userPotCost[i] = (u.Beta/u.Alpha)*d + (u.Gamma/u.Alpha)*b
		p.profCost.add(p.userCost[i])
		p.potCost.add(p.userPotCost[i])
	}
	for k := range p.inst.Tasks {
		n := p.nk[k]
		for q := 1; q <= n; q++ {
			p.potReward.add(p.memo.share(k, q))
		}
		if n > 0 {
			p.profReward.add(p.alphaSum[k] * p.memo.share(k, n))
		}
		p.shares.Now[k], p.shares.Join[k] = p.memo.share(k, n), p.memo.share(k, n+1)
	}
}

// Instance returns the underlying game instance.
func (p *Profile) Instance() *Instance { return p.inst }

// Choice returns the route index chosen by user i.
func (p *Profile) Choice(i UserID) int { return p.choices[int(i)] }

// Choices returns a copy of all route choices.
func (p *Profile) Choices() []int { return append([]int(nil), p.choices...) }

// Route returns the route currently chosen by user i.
func (p *Profile) Route(i UserID) Route {
	return p.inst.Users[int(i)].Routes[p.choices[int(i)]]
}

// Count returns n_k(s), the number of users performing task k.
func (p *Profile) Count(k task.ID) int { return p.nk[int(k)] }

// SetChoice moves user i to route index c, updating the participant counts
// and every cached aggregate incrementally in O(|L_old| + |L_new|). Tasks
// covered by both routes are walked twice with exactly cancelling deltas,
// so no set intersection is needed. Each step shifts task k's share caches
// by one participant, so only one new share is computed per task walked.
func (p *Profile) SetChoice(i UserID, c int) {
	u := p.inst.Users[int(i)]
	if c < 0 || c >= len(u.Routes) {
		panic(fmt.Sprintf("core: SetChoice(%d, %d) out of range", i, c))
	}
	old := p.choices[int(i)]
	if old == c {
		return
	}
	alpha := u.Alpha
	for _, k := range u.Routes[old].Tasks {
		n, a := p.nk[k], p.alphaSum[k]
		// User i leaves task k: n_k drops to n-1, the alpha-sum loses α_i.
		now, prev := p.shares.Now[k], p.memo.share(int(k), n-1)
		p.potReward.add(-now)
		p.profReward.add((a-alpha)*prev - a*now)
		p.alphaSum[k] = a - alpha
		p.nk[k] = n - 1
		p.shares.Now[k], p.shares.Join[k] = prev, now
	}
	for _, k := range u.Routes[c].Tasks {
		n, a := p.nk[k]+1, p.alphaSum[k]+alpha
		join, prev := p.shares.Join[k], p.shares.Now[k]
		p.potReward.add(join)
		p.profReward.add(a*join - (a-alpha)*prev)
		p.alphaSum[k] = a
		p.nk[k] = n
		p.shares.Now[k], p.shares.Join[k] = join, p.memo.share(int(k), n+1)
	}
	p.choices[int(i)] = c

	r := u.Routes[c]
	d, b := p.inst.DetourCost(r), p.inst.CongestionCost(r)
	cost := u.Beta*d + u.Gamma*b
	potCost := (u.Beta/u.Alpha)*d + (u.Gamma/u.Alpha)*b
	p.profCost.add(cost - p.userCost[int(i)])
	p.potCost.add(potCost - p.userPotCost[int(i)])
	p.userCost[int(i)] = cost
	p.userPotCost[int(i)] = potCost

	p.moves++
	if p.moves >= rebaseEvery {
		p.rebase()
	}
}

// Clone returns an independent copy of the profile sharing the instance,
// the immutable share memo, and the overlap masks. All mutable cache state
// — counts, share caches, alpha-sums, per-user cost terms, and the
// compensated Φ / ΣP_i accumulators — is copied, so mutating the clone
// never perturbs the original (and vice versa).
func (p *Profile) Clone() *Profile {
	q := &Profile{
		inst:        p.inst,
		choices:     append([]int(nil), p.choices...),
		nk:          append([]int(nil), p.nk...),
		memo:        p.memo,
		shares:      Shares{Now: append([]float64(nil), p.shares.Now...), Join: append([]float64(nil), p.shares.Join...)},
		alphaSum:    append([]float64(nil), p.alphaSum...),
		userCost:    append([]float64(nil), p.userCost...),
		userPotCost: append([]float64(nil), p.userPotCost...),
		potReward:   p.potReward,
		potCost:     p.potCost,
		profReward:  p.profReward,
		profCost:    p.profCost,
		moves:       p.moves,
	}
	q.ev.init(q)
	return q
}

// Profit returns P_i(s) per Eq. (2) for user i under the current profile.
func (p *Profile) Profit(i UserID) float64 {
	u := p.inst.Users[int(i)]
	r := u.Routes[p.choices[int(i)]]
	var reward float64
	for _, k := range r.Tasks {
		reward += p.shares.Now[k]
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(r) - u.Gamma*p.inst.CongestionCost(r)
}

// RewardOf returns the unweighted task-reward component of user i's profit:
// Σ_{k∈L_si} w_k(n_k)/n_k. Used by the coverage/reward metrics of §5.3.2.
func (p *Profile) RewardOf(i UserID) float64 {
	r := p.Route(i)
	var reward float64
	for _, k := range r.Tasks {
		reward += p.shares.Now[k]
	}
	return reward
}

// ProfitIf returns P_i((c, s_-i)): user i's profit if it unilaterally
// switched to route index c while everyone else stays put. It does not
// mutate the profile. Counts are adjusted as in Theorem 2's proof: tasks
// covered by both routes keep their count; tasks only on the new route gain
// one participant (user i itself).
func (p *Profile) ProfitIf(i UserID, c int) float64 { return p.ev.profitIf(i, c) }

// ProfitDeltaIf returns P_i((c, s_-i)) − P_i(s) directly, summing cached
// shares over the symmetric difference of the current and candidate routes
// only — the Eq. 8 locality that makes a best-response probe O(|Δroutes|):
//
//	ΔP_i = α_i·( Σ_{k∈L'\L} w_k(n_k+1)/(n_k+1) − Σ_{k∈L\L'} w_k(n_k)/n_k )
//	       − β_i·(d(r')−d(r)) − γ_i·(b(r')−b(r)).
//
// BetterResponses, BestResponseSet, NashGap, and Tau are all built on it.
func (p *Profile) ProfitDeltaIf(i UserID, c int) float64 { return p.ev.profitDeltaIf(i, c) }

// TotalProfit returns Σ_i P_i(s), the objective of the centralized problem
// (Eq. 5). It reads the cached aggregates in O(1).
func (p *Profile) TotalProfit() float64 {
	return p.profReward.value() - p.profCost.value()
}

// Potential returns the weighted potential Φ(s) of Eq. (8):
//
//	Φ(s) = Σ_k Σ_{q=1..n_k} w_k(q)/q − Σ_i (β_i/α_i)·d(s_i) − Σ_i (γ_i/α_i)·b(s_i).
//
// It reads the cached aggregates in O(1); SetChoice keeps them current.
func (p *Profile) Potential() float64 {
	return p.potReward.value() - p.potCost.value()
}

// BetterResponses returns the route indices that strictly improve user i's
// profit over its current choice (Definition 1, better response update).
func (p *Profile) BetterResponses(i UserID) []int { return p.ev.betterResponses(i) }

// BestResponseSet returns Δ_i: the set of route indices achieving the
// maximum profit among all strict improvements (Definition 1, best response
// update; Algorithm 1 line 10). It is empty when the current choice is
// already a best response.
func (p *Profile) BestResponseSet(i UserID) []int { return p.ev.bestResponseSet(i) }

// IsNash reports whether no user has a better response (Definition 2).
func (p *Profile) IsNash() bool {
	for i := range p.inst.Users {
		if p.ev.hasBetterResponse(UserID(i)) {
			return false
		}
	}
	return true
}

// NashGap returns the largest profit improvement any user could obtain by a
// unilateral deviation. It is 0 (up to Eps) exactly at a Nash equilibrium
// and quantifies how far a profile is from one otherwise.
func (p *Profile) NashGap() float64 {
	var gap float64
	for i := range p.inst.Users {
		if g := p.ev.gapOf(UserID(i)); g > gap {
			gap = g
		}
	}
	return gap
}

// IsEpsilonNash reports whether no user can improve its profit by more than
// eps through a unilateral deviation — the approximate-equilibrium notion
// used when comparing against truncated runs.
func (p *Profile) IsEpsilonNash(eps float64) bool { return p.NashGap() <= eps }

// Tau returns τ_i = (P_i(c, s_-i) − P_i(s))/α_i for a prospective move of
// user i to route index c — the per-user potential increase used by the PUU
// algorithm (Algorithm 3) and the BUAU baseline.
func (p *Profile) Tau(i UserID, c int) float64 {
	u := p.inst.Users[int(i)]
	return p.ev.profitDeltaIf(i, c) / u.Alpha
}

// AppendMoveTasks appends B_i for a prospective move of user i to route
// index c to dst and returns the extended slice: the union of tasks covered
// by the current and the new route, current route first. Two users whose B
// sets are disjoint can update concurrently without interfering
// (Algorithm 3). Appending lets a caller pack many B sets into one buffer.
func (p *Profile) AppendMoveTasks(dst []int, i UserID, c int) []int {
	return p.ev.appendMoveTasks(dst, i, c)
}

// CoveredTasks returns the number of distinct tasks covered by at least one
// user's chosen route (the numerator of the §5.3.2 coverage metric).
func (p *Profile) CoveredTasks() int {
	n := 0
	for _, c := range p.nk {
		if c > 0 {
			n++
		}
	}
	return n
}

// OverlapRatio returns the Table-3 overlap ratio: the number of tasks with
// more than one participant divided by the total number of tasks.
func (p *Profile) OverlapRatio() float64 {
	if len(p.nk) == 0 {
		return 0
	}
	multi := 0
	for _, c := range p.nk {
		if c > 1 {
			multi++
		}
	}
	return float64(multi) / float64(len(p.nk))
}
