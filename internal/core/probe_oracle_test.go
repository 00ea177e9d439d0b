package core

import (
	"fmt"
	"math"
	"slices"
)

// The marking probes below are the frozen pre-mask implementations of
// ProfitDeltaIf, ProfitIf, and AppendMoveTasks: they mark the current (or
// candidate) route's tasks in a per-task array and filter the other route
// against the marks, dividing for every share. They survive only as test
// oracles for the masked probes, which must match them bit for bit — both
// sum the same shares in the same order with the same cost expression.

func routeMarks(in *Instance, r Route) []bool {
	on := make([]bool, len(in.Tasks))
	for _, k := range r.Tasks {
		on[k] = true
	}
	return on
}

func markingProfitDeltaIf(p *Profile, i UserID, c int) float64 {
	u := p.inst.Users[int(i)]
	old := p.choices[int(i)]
	if c == old {
		return 0
	}
	cur, cand := u.Routes[old], u.Routes[c]
	var d float64
	onCur := routeMarks(p.inst, cur)
	for _, k := range cand.Tasks {
		if !onCur[k] { // k ∈ L'\L: user i would join
			d += p.memo.share(int(k), p.nk[k]+1)
		}
	}
	onCand := routeMarks(p.inst, cand)
	for _, k := range cur.Tasks {
		if !onCand[k] { // k ∈ L\L': user i would leave
			d -= p.memo.share(int(k), p.nk[k])
		}
	}
	return u.Alpha*d -
		u.Beta*(p.inst.DetourCost(cand)-p.inst.DetourCost(cur)) -
		u.Gamma*(p.inst.CongestionCost(cand)-p.inst.CongestionCost(cur))
}

func markingProfitIf(p *Profile, i UserID, c int) float64 {
	u := p.inst.Users[int(i)]
	cand := u.Routes[c]
	onCur := routeMarks(p.inst, u.Routes[p.choices[int(i)]])
	var reward float64
	for _, k := range cand.Tasks {
		n := p.nk[k]
		if !onCur[k] {
			n++ // user i joins task k
		}
		reward += p.memo.share(int(k), n)
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(cand) - u.Gamma*p.inst.CongestionCost(cand)
}

func markingMoveTasks(p *Profile, i UserID, c int) []int {
	u := p.inst.Users[int(i)]
	cur := u.Routes[p.choices[int(i)]]
	onCur := routeMarks(p.inst, cur)
	var out []int
	for _, k := range cur.Tasks {
		out = append(out, int(k))
	}
	for _, k := range u.Routes[c].Tasks {
		if !onCur[k] {
			out = append(out, int(k))
		}
	}
	return out
}

// probeMismatch compares every (user, route) probe of p — ProfitDeltaIf,
// Tau, ProfitIf, and AppendMoveTasks — against the marking oracles, bit for
// bit, on the profile's own probe state, and a fresh Evaluator's
// ProfitDeltas too. It returns a description of the first disagreement, or
// "" when all agree.
func probeMismatch(p *Profile) string {
	ev := p.NewEvaluator()
	for i, u := range p.inst.Users {
		uid := UserID(i)
		dp := make([]float64, len(u.Routes))
		ev.ProfitDeltas(uid, dp)
		for c := range u.Routes {
			want := markingProfitDeltaIf(p, uid, c)
			if got := p.ProfitDeltaIf(uid, c); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("ProfitDeltaIf(%d,%d) = %v, marking oracle %v", i, c, got, want)
			}
			if got := dp[c]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("Evaluator.ProfitDeltas(%d)[%d] = %v, marking oracle %v", i, c, got, want)
			}
			if got := p.Tau(uid, c); math.Float64bits(got) != math.Float64bits(want/u.Alpha) {
				return fmt.Sprintf("Tau(%d,%d) = %v, marking oracle %v", i, c, got, want/u.Alpha)
			}
			wantIf := markingProfitIf(p, uid, c)
			if got := p.ProfitIf(uid, c); math.Float64bits(got) != math.Float64bits(wantIf) {
				return fmt.Sprintf("ProfitIf(%d,%d) = %v, marking oracle %v", i, c, got, wantIf)
			}
			if got, want := p.AppendMoveTasks(nil, uid, c), markingMoveTasks(p, uid, c); !slices.Equal(got, want) {
				return fmt.Sprintf("AppendMoveTasks(%d,%d) = %v, marking oracle %v", i, c, got, want)
			}
		}
	}
	return ""
}

// ProbeMismatch exposes probeMismatch to the external test package, whose
// road-scenario test cannot live here (experiments imports core).
func ProbeMismatch(p *Profile) string { return probeMismatch(p) }
