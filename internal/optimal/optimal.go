// Package optimal implements CORN, the Centralized Optimal Route Navigation
// baseline of §5.2: an exact maximizer of the total user profit Σ_i P_i(s)
// (Eq. 5). Theorem 1 shows the problem is NP-hard, so exactness costs
// exponential time in the worst case; the paper only evaluates CORN at
// ≤ 14 users (Figs. 7 and 10, Table 4), where the branch-and-bound solver
// below is fast. A plain brute-force solver is included as a cross-check
// oracle for tests.
package optimal

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Solution is an optimal (or best-found) strategy profile.
type Solution struct {
	Choices []int
	Total   float64
	// Nodes is the number of branch-and-bound tree nodes explored.
	Nodes int
	// Exact reports whether the search ran to completion (always true for
	// Solve; false only if a node budget was exhausted in SolveBudget).
	Exact bool
}

// Solve returns a centrally optimal strategy profile maximizing total
// profit. It uses depth-first branch and bound with an admissible upper
// bound; see ub() for the argument of admissibility.
func Solve(in *core.Instance) (Solution, error) {
	return SolveBudget(in, 0)
}

// SolveBudget is Solve with a cap on explored nodes (0 = unlimited). When
// the cap is hit the incumbent (best profile found so far) is returned with
// Exact=false.
func SolveBudget(in *core.Instance, maxNodes int) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, fmt.Errorf("optimal: %w", err)
	}
	b := &bb{in: in, maxNodes: maxNodes}
	b.init()
	b.dfs(0)
	sol := Solution{Choices: b.bestChoices, Total: b.bestTotal, Nodes: b.nodes, Exact: !b.budgetHit}
	return sol, nil
}

type bb struct {
	in       *core.Instance
	maxNodes int

	nk      []int // participant counts of the partial assignment
	choices []int
	// maxShareRemaining[i] is an upper bound on the α-weighted reward minus
	// cost any assignment of user i can contribute given counts only grow;
	// recomputed lazily per node for unassigned users.
	bestChoices []int
	bestTotal   float64
	nodes       int
	budgetHit   bool
}

func (b *bb) init() {
	in := b.in
	b.nk = make([]int, len(in.Tasks))
	b.choices = make([]int, len(in.Users))
	for i := range b.choices {
		b.choices[i] = -1
	}
	b.bestTotal = math.Inf(-1)
	// Seed the incumbent with the greedy sequential pass: it is cheap and
	// gives strong pruning from the start.
	if g, err := Greedy(in); err == nil {
		b.bestTotal, b.bestChoices = g.Total, g.Choices
	}
}

// joinProfit computes user u's profit for route r if it were added to
// counts nk (u not yet counted).
func joinProfit(in *core.Instance, nk []int, u core.User, r core.Route) float64 {
	var reward float64
	for _, k := range r.Tasks {
		reward += in.Tasks[k].Share(nk[k] + 1)
	}
	return u.Alpha*reward - u.Beta*in.DetourCost(r) - u.Gamma*in.CongestionCost(r)
}

// partialTotal returns the total profit of users [0,upto) evaluated at the
// CURRENT counts. Because per-user shares w_k(n)/n are non-increasing in n
// (a_k ≥ 1, µ_k ∈ [0,1] ⇒ w_k(n)/n strictly decreases), and counts only
// grow as further users are assigned, this value is an upper bound on those
// users' final total profit.
func (b *bb) partialTotal(upto int) float64 {
	var total float64
	for i := 0; i < upto; i++ {
		u := b.in.Users[i]
		r := u.Routes[b.choices[i]]
		var reward float64
		for _, k := range r.Tasks {
			reward += b.in.Tasks[k].Share(b.nk[k])
		}
		total += u.Alpha*reward - u.Beta*b.in.DetourCost(r) - u.Gamma*b.in.CongestionCost(r)
	}
	return total
}

// ub returns an admissible upper bound on the best total profit reachable
// from the current partial assignment of users [0,depth): the partial total
// at current counts (an overestimate of those users' final profits) plus,
// for each unassigned user, the maximum over its routes of the profit it
// would get joining the current counts alone (an overestimate because any
// additional participant only lowers shares).
func (b *bb) ub(depth int) float64 {
	total := b.partialTotal(depth)
	for i := depth; i < len(b.in.Users); i++ {
		u := b.in.Users[i]
		best := math.Inf(-1)
		for _, r := range u.Routes {
			if v := joinProfit(b.in, b.nk, u, r); v > best {
				best = v
			}
		}
		total += best
	}
	return total
}

func (b *bb) dfs(depth int) {
	if b.budgetHit {
		return
	}
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		b.budgetHit = true
		return
	}
	in := b.in
	if depth == len(in.Users) {
		if total := b.partialTotal(depth); total > b.bestTotal {
			b.bestTotal = total
			b.bestChoices = append(b.bestChoices[:0], b.choices...)
		}
		return
	}
	if b.ub(depth) <= b.bestTotal+1e-12 {
		return // prune: cannot beat the incumbent
	}
	u := in.Users[depth]
	// Branch on routes in descending myopic value to find good incumbents
	// early.
	order := make([]int, len(u.Routes))
	vals := make([]float64, len(u.Routes))
	for c := range u.Routes {
		order[c] = c
		vals[c] = joinProfit(in, b.nk, u, u.Routes[c])
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && vals[order[j]] > vals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, c := range order {
		b.choices[depth] = c
		for _, k := range u.Routes[c].Tasks {
			b.nk[k]++
		}
		b.dfs(depth + 1)
		for _, k := range u.Routes[c].Tasks {
			b.nk[k]--
		}
		b.choices[depth] = -1
	}
}

// BruteForce exhaustively enumerates all strategy profiles and returns the
// optimum. Exponential; use only on tiny instances (tests use it as the
// oracle for Solve).
func BruteForce(in *core.Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, fmt.Errorf("optimal: %w", err)
	}
	choices := make([]int, len(in.Users))
	best := Solution{Total: math.Inf(-1), Exact: true}
	p, err := core.NewProfile(in, choices)
	if err != nil {
		return Solution{}, err
	}
	for {
		if total := p.TotalProfit(); total > best.Total {
			best.Total = total
			best.Choices = append(best.Choices[:0], choices...)
		}
		best.Nodes++
		// Odometer increment over the mixed-radix choice vector.
		i := 0
		for ; i < len(choices); i++ {
			if choices[i]+1 < len(in.Users[i].Routes) {
				choices[i]++
				p.SetChoice(core.UserID(i), choices[i])
				break
			}
			choices[i] = 0
			p.SetChoice(core.UserID(i), 0)
		}
		if i == len(choices) {
			return best, nil
		}
	}
}

// Profile materializes the solution as a core.Profile.
func (s Solution) Profile(in *core.Instance) (*core.Profile, error) {
	return core.NewProfile(in, s.Choices)
}
