package core

import "repro/internal/task"

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
// also on the current route keep their count (shareNow); the others gain
// user i (shareJoin).
func (e *evalState) profitIf(i UserID, c int) float64 {
	p := e.p
	u := &p.inst.Users[int(i)]
	cand := &u.Routes[c]
	mask := e.masks().mask(i, p.choices[int(i)], c, len(cand.Tasks))
	var reward float64
	for pos, k := range cand.Tasks {
		if mask[pos>>6]&(1<<(pos&63)) != 0 {
			reward += p.shareNow[k]
		} else {
			reward += p.shareJoin[k]
		}
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(*cand) - u.Gamma*p.inst.CongestionCost(*cand)
}

// profitDeltaIf is ProfitDeltaIf: the profit change of the unilateral move
// i→c, evaluated by MoveDelta on the symmetric difference of the two
// routes over the profile's share caches.
func (e *evalState) profitDeltaIf(i UserID, c int) float64 {
	p := e.p
	u := &p.inst.Users[int(i)]
	old := p.choices[int(i)]
	if c == old {
		return 0
	}
	cur, cand := &u.Routes[old], &u.Routes[c]
	om := e.masks()
	return MoveDelta(u.Alpha, u.Beta, u.Gamma,
		MoveRoute[task.ID]{cur.Tasks, p.inst.DetourCost(*cur), p.inst.CongestionCost(*cur)},
		MoveRoute[task.ID]{cand.Tasks, p.inst.DetourCost(*cand), p.inst.CongestionCost(*cand)},
		om.mask(i, old, c, len(cand.Tasks)), om.mask(i, c, old, len(cur.Tasks)),
		p.shareNow, p.shareJoin)
}

func (e *evalState) betterResponses(i UserID) []int {
	p := e.p
	var out []int
	for c := range p.inst.Users[int(i)].Routes {
		if c == p.choices[int(i)] {
			continue
		}
		if e.profitDeltaIf(i, c) > Eps {
			out = append(out, c)
		}
	}
	return out
}

func (e *evalState) hasBetterResponse(i UserID) bool {
	p := e.p
	for c := range p.inst.Users[int(i)].Routes {
		if c == p.choices[int(i)] {
			continue
		}
		if e.profitDeltaIf(i, c) > Eps {
			return true
		}
	}
	return false
}

func (e *evalState) bestResponseSet(i UserID) []int {
	var buf [8]float64
	dp := buf[:0]
	for c := range e.p.inst.Users[int(i)].Routes {
		dp = append(dp, e.profitDeltaIf(i, c))
	}
	return BestResponseSetOf[int](nil, dp, e.p.choices[int(i)])
}

// gapOf returns the largest profit improvement user i could obtain by a
// unilateral deviation (0 when none improves).
func (e *evalState) gapOf(i UserID) float64 {
	p := e.p
	var gap float64
	for c := range p.inst.Users[int(i)].Routes {
		if c == p.choices[int(i)] {
			continue
		}
		if d := e.profitDeltaIf(i, c); d > gap {
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

// ProfitDeltaIf is Profile.ProfitDeltaIf on the evaluator's probe state.
func (ev *Evaluator) ProfitDeltaIf(i UserID, c int) float64 { return ev.e.profitDeltaIf(i, c) }
