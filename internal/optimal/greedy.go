package optimal

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Greedy returns the sequential myopic assignment: users pick, in ID order,
// the route maximizing their own profit given earlier picks. It runs in
// O(|U|·maxRoutes·maxTasks) and is the incumbent seed of the exact solver;
// exposed so large instances (beyond CORN's exponential reach) still get a
// centralized reference point.
func Greedy(in *core.Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, fmt.Errorf("optimal: %w", err)
	}
	choices := make([]int, len(in.Users))
	nk := make([]int, len(in.Tasks))
	for i, u := range in.Users {
		bestC, bestV := 0, math.Inf(-1)
		for c, r := range u.Routes {
			if v := joinProfit(in, nk, u, r); v > bestV {
				bestC, bestV = c, v
			}
		}
		choices[i] = bestC
		for _, k := range u.Routes[bestC].Tasks {
			nk[k]++
		}
	}
	p, err := core.NewProfile(in, choices)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Choices: choices, Total: p.TotalProfit(), Nodes: len(in.Users), Exact: false}, nil
}

// LocalSearch improves a solution by single-user moves that increase the
// TOTAL profit (not the mover's own profit — this climbs the social
// objective, unlike best-response dynamics which climb the potential). It
// stops at a local optimum of the 1-swap neighborhood or after maxRounds
// full passes (0 = no cap).
func LocalSearch(in *core.Instance, start Solution, maxRounds int) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, fmt.Errorf("optimal: %w", err)
	}
	p, err := core.NewProfile(in, start.Choices)
	if err != nil {
		return Solution{}, err
	}
	total := p.TotalProfit()
	nodes := start.Nodes
	for round := 0; maxRounds == 0 || round < maxRounds; round++ {
		improved := false
		for i := range in.Users {
			u := core.UserID(i)
			cur := p.Choice(u)
			bestC, bestTotal := cur, total
			for c := range in.Users[i].Routes {
				if c == cur {
					continue
				}
				nodes++
				p.SetChoice(u, c)
				if tt := p.TotalProfit(); tt > bestTotal+1e-12 {
					bestC, bestTotal = c, tt
				}
			}
			p.SetChoice(u, bestC)
			if bestC != cur {
				total = bestTotal
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return Solution{Choices: p.Choices(), Total: total, Nodes: nodes, Exact: false}, nil
}

// GreedyWithLocalSearch chains Greedy and LocalSearch — the recommended
// centralized heuristic for instances too large for Solve.
func GreedyWithLocalSearch(in *core.Instance) (Solution, error) {
	g, err := Greedy(in)
	if err != nil {
		return Solution{}, err
	}
	return LocalSearch(in, g, 0)
}
