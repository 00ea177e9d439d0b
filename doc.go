// Package repro is a from-scratch Go reproduction of "Distributed
// Game-Theoretical Route Navigation for Vehicular Crowdsensing" (Wang et
// al., ICPP '21): a multi-user potential game in which vehicular
// crowdsensing users distributively pick navigation routes that cover
// sensing tasks, converging to a Nash equilibrium with provable total-profit
// guarantees.
//
// The library lives under internal/:
//
//   - internal/core — the game model: profit P_i (Eq. 2), the weighted
//     potential Φ (Eq. 8), best/better responses.
//   - internal/engine — Algorithms 1–3 (decision slots, SUU/PUU) and every
//     §5.2 baseline (DGRN, MUUN, BRUN, BUAU, BATS, RRN).
//   - internal/optimal — the exact centralized optimum CORN (Theorem 1
//     makes it NP-hard; branch and bound handles the paper's ≤14-user runs).
//   - internal/distributed + internal/wire — the protocol as real message
//     passing between a platform and per-user agents (goroutines or TCP).
//   - internal/roadnet, internal/trace, internal/task — the evaluation
//     substrates: road graphs, penalty-based alternative-route recommendation,
//     synthetic taxi-trace datasets, and sensing tasks.
//   - internal/experiments — a driver per table/figure of §5, exercised by
//     the benchmarks in bench_test.go and the cmd/vcsnav CLI.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
