// Distributed: run the actual distributed protocol — one platform goroutine
// (Algorithm 2) and one agent goroutine per user (Algorithm 1) exchanging
// wire messages — and verify the reached equilibrium. Optionally exercises
// the at-least-once delivery path with duplicate injection.
//
// Run with: go run ./examples/distributed [-users 12] [-policy PUU] [-dup 0.3]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var (
		users  = flag.Int("users", 12, "number of user agents")
		tasks  = flag.Int("tasks", 30, "number of tasks")
		policy = flag.String("policy", "PUU", "platform selection: SUU or PUU")
		dup    = flag.Float64("dup", 0, "probability of duplicate message delivery (fault injection)")
		seed   = flag.Uint64("seed", 11, "seed")
	)
	flag.Parse()

	w, err := experiments.NewWorld(trace.Epfl(), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: *users, Tasks: *tasks}, rng.New(*seed).Child())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	in := sc.Instance
	fmt.Printf("spawning 1 platform + %d agent goroutines (policy %s, dup %.0f%%)\n",
		in.NumUsers(), *policy, *dup*100)

	// The chaos runner injects the duplicates (none at -dup 0) on both
	// ends of every agent link.
	dupProfile := distributed.FaultProfile{DupProb: *dup}
	stats, err := distributed.RunChaos(in, distributed.ChaosOptions{
		Platform:        distributed.PlatformConfig{Policy: distributed.SelectionPolicy(*policy), Seed: *seed},
		AgentSeedBase:   *seed * 31,
		Seed:            *seed,
		AgentProfile:    dupProfile,
		PlatformProfile: dupProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := core.NewProfile(in, stats.Choices)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("converged: %v in %d slots, %d user updates\n", stats.Converged, stats.Slots, stats.TotalUpdates)
	fmt.Printf("Nash equilibrium: %v\n", p.IsNash())
	fmt.Printf("total profit %.3f, coverage %.3f, Jain %.3f\n",
		p.TotalProfit(), metrics.Coverage(p), metrics.JainIndex(p))
	if len(stats.SelectedPerSlot) > 0 {
		parallel := 0
		for _, sel := range stats.SelectedPerSlot {
			if sel > 1 {
				parallel++
			}
		}
		fmt.Printf("parallel-update slots: %d of %d\n", parallel, stats.Slots)
	}
	fmt.Println("\n(for a multi-process run over TCP, see cmd/platformd and cmd/useragent)")
}
