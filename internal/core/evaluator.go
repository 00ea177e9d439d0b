package core

// evalState answers delta probes (ProfitIf, ProfitDeltaIf, AppendMoveTasks,
// best/better response computation) against a profile. A probe reads only
// choices and the profile's share caches, and walks the instance's
// route-overlap masks to visit the symmetric difference of the current and
// candidate routes; it writes nothing. The profile's own queries run
// against its embedded evalState; Profile.NewEvaluator hands out more, so
// that many goroutines can probe the same frozen profile concurrently.
type evalState struct {
	p *Profile
}

func (e *evalState) init(p *Profile) { e.p = p }

// masks returns the instance's overlap masks, building them on first use.
func (e *evalState) masks() *overlapMasks { return e.p.memo.overlapMasks(e.p.inst) }

// profitIf is ProfitIf: the absolute profit of user i on candidate c with
// everyone else fixed, summed over the candidate's full task set. Tasks
// also on the current route keep their count (shares.Now); the others
// gain user i (shares.Join).
func (e *evalState) profitIf(i UserID, c int) float64 {
	p := e.p
	u := &p.inst.Users[int(i)]
	cand := &u.Routes[c]
	mask := e.masks().mask(i, p.choices[int(i)], c, len(cand.Tasks))
	var reward float64
	for pos, k := range cand.Tasks {
		if mask[pos>>6]&(1<<(pos&63)) != 0 {
			reward += p.shares.Now[k]
		} else {
			reward += p.shares.Join[k]
		}
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(*cand) - u.Gamma*p.inst.CongestionCost(*cand)
}

// profitDeltaIf is ProfitDeltaIf: the profit change of the unilateral move
// i→c, evaluated by the move kernel (MoveView.Delta) on the symmetric
// difference of the two routes over the profile's share caches.
func (e *evalState) profitDeltaIf(i UserID, c int) float64 {
	old := e.p.choices[int(i)]
	if c == old {
		return 0
	}
	v := e.masks().view(e.p, i)
	return v.Delta(old, c)
}

// profitDeltas writes ΔP_i(c) for every route c of user i into dp, which
// has one slot per route; the slot of the current route gets 0.
func (e *evalState) profitDeltas(i UserID, dp []float64) {
	v, cur := e.masks().view(e.p, i), e.p.choices[int(i)]
	for c := range dp {
		if c == cur {
			dp[c] = 0
			continue
		}
		dp[c] = v.Delta(cur, c)
	}
}

func (e *evalState) betterResponses(i UserID) []int {
	v, cur := e.masks().view(e.p, i), e.p.choices[int(i)]
	var out []int
	for c := range v.Routes {
		if c != cur && v.Delta(cur, c) > Eps {
			out = append(out, c)
		}
	}
	return out
}

func (e *evalState) hasBetterResponse(i UserID) bool {
	v, cur := e.masks().view(e.p, i), e.p.choices[int(i)]
	for c := range v.Routes {
		if c != cur && v.Delta(cur, c) > Eps {
			return true
		}
	}
	return false
}

func (e *evalState) bestResponseSet(i UserID) []int {
	var buf [8]float64
	dp := buf[:0]
	for range e.p.inst.Users[int(i)].Routes {
		dp = append(dp, 0)
	}
	e.profitDeltas(i, dp)
	return BestResponseSetOf[int](nil, dp, e.p.choices[int(i)])
}

// gapOf returns the largest profit improvement user i could obtain by a
// unilateral deviation (0 when none improves).
func (e *evalState) gapOf(i UserID) float64 {
	v, cur := e.masks().view(e.p, i), e.p.choices[int(i)]
	var gap float64
	for c := range v.Routes {
		if c == cur {
			continue
		}
		if d := v.Delta(cur, c); d > gap {
			gap = d
		}
	}
	return gap
}

// appendMoveTasks appends B_i for the move i→c to dst: every task of the
// current route, then the candidate's tasks that are not on it.
func (e *evalState) appendMoveTasks(dst []int, i UserID, c int) []int {
	p := e.p
	u := &p.inst.Users[int(i)]
	old := p.choices[int(i)]
	cur, cand := u.Routes[old].Tasks, u.Routes[c].Tasks
	return AppendMoveTasksOf(dst, cur, cand, e.masks().mask(i, old, c, len(cand)))
}

// Evaluator answers best-response probes against a profile through its own
// probe state. Any number of Evaluators may query the same profile
// concurrently as long as no goroutine mutates the profile (via SetChoice)
// in the meantime — the engine's sharded request collection relies on
// exactly this. Results are bit-identical to the profile's own methods:
// both run the same evalState code over the same caches and masks.
type Evaluator struct {
	e evalState
}

// NewEvaluator returns an independent probe context for the profile. It
// resolves the instance's overlap masks up front, so a caller that creates
// its evaluators before fanning out pays the one-time build outside the
// parallel section.
func (p *Profile) NewEvaluator() *Evaluator {
	ev := &Evaluator{}
	ev.e.init(p)
	ev.e.masks()
	return ev
}

// ProfitDeltas writes Profile.ProfitDeltaIf(i, c) for every route c of
// user i into dp, which has one slot per route (0 at the current route),
// building the user's move view once for all of them.
func (ev *Evaluator) ProfitDeltas(i UserID, dp []float64) { ev.e.profitDeltas(i, dp) }
