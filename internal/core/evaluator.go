package core

import "math/bits"

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
// i→c, evaluated on the symmetric difference of the two routes only. The
// clear bits of the overlap masks name the tasks user i would join (in
// candidate order) and leave (in current order); the share caches supply
// w_k(n_k+1)/(n_k+1) and w_k(n_k)/n_k without a division.
func (e *evalState) profitDeltaIf(i UserID, c int) float64 {
	p := e.p
	u := &p.inst.Users[int(i)]
	old := p.choices[int(i)]
	if c == old {
		return 0
	}
	cur, cand := &u.Routes[old], &u.Routes[c]
	om := e.masks()
	var d float64
	for w, word := range om.mask(i, old, c, len(cand.Tasks)) {
		for x := ^word; x != 0; x &= x - 1 { // k ∈ L'\L: user i would join
			d += p.shareJoin[cand.Tasks[w<<6|bits.TrailingZeros64(x)]]
		}
	}
	for w, word := range om.mask(i, c, old, len(cur.Tasks)) {
		for x := ^word; x != 0; x &= x - 1 { // k ∈ L\L': user i would leave
			d -= p.shareNow[cur.Tasks[w<<6|bits.TrailingZeros64(x)]]
		}
	}
	return u.Alpha*d -
		u.Beta*(p.inst.DetourCost(*cand)-p.inst.DetourCost(*cur)) -
		u.Gamma*(p.inst.CongestionCost(*cand)-p.inst.CongestionCost(*cur))
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
	p := e.p
	var best float64 // best improvement so far; 0 = the current choice
	var out []int
	for c := range p.inst.Users[int(i)].Routes {
		if c == p.choices[int(i)] {
			continue
		}
		d := e.profitDeltaIf(i, c)
		switch {
		case d > best+Eps:
			best = d
			out = out[:0]
			out = append(out, c)
		case d > Eps && d >= best-Eps && len(out) > 0:
			out = append(out, c)
		}
	}
	return out
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
	for _, k := range cur {
		dst = append(dst, int(k))
	}
	for w, word := range e.masks().mask(i, old, c, len(cand)) {
		for x := ^word; x != 0; x &= x - 1 {
			dst = append(dst, int(cand[w<<6|bits.TrailingZeros64(x)]))
		}
	}
	return dst
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

// BestResponseSet is Profile.BestResponseSet on the evaluator's probe state.
func (ev *Evaluator) BestResponseSet(i UserID) []int { return ev.e.bestResponseSet(i) }

// BetterResponses is Profile.BetterResponses on the evaluator's probe state.
func (ev *Evaluator) BetterResponses(i UserID) []int { return ev.e.betterResponses(i) }

// ProfitDeltaIf is Profile.ProfitDeltaIf on the evaluator's probe state.
func (ev *Evaluator) ProfitDeltaIf(i UserID, c int) float64 { return ev.e.profitDeltaIf(i, c) }

// ProfitIf is Profile.ProfitIf on the evaluator's probe state.
func (ev *Evaluator) ProfitIf(i UserID, c int) float64 { return ev.e.profitIf(i, c) }

// GapOf returns user i's largest unilateral improvement (the per-user term
// of NashGap).
func (ev *Evaluator) GapOf(i UserID) float64 { return ev.e.gapOf(i) }
