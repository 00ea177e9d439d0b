package core

import (
	"math"
	"testing"

	"repro/internal/task"
)

// FuzzSilenceTolerance checks the tolerance an agent sends with a no-move
// answer against the skip rule it stands for: the returned T must satisfy
// Skips at T and fail it at T+1, so the platform contacts the agent at the
// first drift the rule no longer covers and not later. The bound comes
// from NewSkipBound over a two-route user, as an agent builds it. gapMode
// picks the gap: as fuzzed, exactly Eps − slack (the boundary), or NaN.
// The seeds cover both signs of α, the NaN gap, the boundary, a bound held
// by the x ≤ M_i clause (tiny rewards, a deep gap), and saturation at
// DriftInf (α = 0 never drifts).
func FuzzSilenceTolerance(f *testing.F) {
	f.Add(0.5, 0.2, 0.1, 30.0, -2.0, uint8(0))
	f.Add(-0.5, 0.2, 0.1, 30.0, -2.0, uint8(0))
	f.Add(0.7, 0.1, 0.3, 12.0, 0.0, uint8(2))
	f.Add(1.3, 0.4, 0.2, 25.0, 0.0, uint8(1))
	f.Add(-1.3, 0.4, 0.2, 25.0, 0.0, uint8(1))
	f.Add(1.0, 0.0, 0.0, 1e-12, -100.0, uint8(0))
	f.Add(0.0, 0.5, 0.5, 20.0, -1.0, uint8(0))
	f.Add(0.9, 0.3, 0.3, 15.0, 5e-10, uint8(0))
	f.Add(0.9, 0.3, 0.3, 15.0, 2e-9, uint8(0))
	f.Fuzz(func(t *testing.T, alpha, beta, gamma, a, gap float64, gapMode uint8) {
		routes := []MoveRoute[int32]{
			{Tasks: []int32{0, 1}, Detour: 1.5, Congestion: 0.25},
			{Tasks: []int32{1, 2}, Detour: 0.5, Congestion: 2},
		}
		tasks := func(k int32) task.Task { return task.Task{A: a * float64(k+1), Mu: 0.3} }
		b := NewSkipBound(NewWatchScan(3), alpha, beta, gamma, routes, tasks)
		switch gapMode % 3 {
		case 1:
			gap = Eps - b.Slack
		case 2:
			gap = math.NaN()
		}
		T := b.Tolerance(gap)
		if T == DriftInf {
			t.Fatalf("bound %+v gap %g: tolerance DriftInf", b, gap)
		}
		if !b.Skips(gap, T) {
			t.Fatalf("bound %+v gap %g: tolerance %d fails the skip rule", b, gap, T)
		}
		if b.Skips(gap, T+1) {
			t.Fatalf("bound %+v gap %g: tolerance %d, but drift %d still skips", b, gap, T, T+1)
		}
		if T > 0 && !b.Skips(gap, T/2) {
			t.Fatalf("bound %+v gap %g: drift %d fails below tolerance %d", b, gap, T/2, T)
		}
	})
}

// TestScanWatchedMatchesDefinition checks the watched-task scan against its
// definition on random route sets, repeats included: a task is watched
// when some, but not all, routes list it, with the most times one route
// lists it.
func TestScanWatchedMatchesDefinition(t *testing.T) {
	const n = 9
	w := NewWatchScan(n)
	x := uint64(88172645463325252)
	next := func(m int) int { // xorshift: a fixed, dependency-free stream
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(m))
	}
	for trial := 0; trial < 2000; trial++ {
		routes := make([]MoveRoute[int32], 1+next(4))
		for r := range routes {
			for range next(6) {
				routes[r].Tasks = append(routes[r].Tasks, int32(next(n)))
			}
		}
		want := map[int32]int32{}
		for k := int32(0); k < n; k++ {
			on, most := 0, int32(0)
			for _, r := range routes {
				c := int32(0)
				for _, e := range r.Tasks {
					if e == k {
						c++
					}
				}
				if c > 0 {
					on++
				}
				most = max(most, c)
			}
			if on > 0 && on < len(routes) {
				want[k] = most
			}
		}
		got := map[int32]int32{}
		ScanWatched(w, routes, func(k int32, m int32) { got[k] = m })
		if len(got) != len(want) {
			t.Fatalf("routes %v: watched %v, want %v", routes, got, want)
		}
		for k, m := range want {
			if got[k] != m {
				t.Fatalf("routes %v: watched %v, want %v", routes, got, want)
			}
		}
	}
}
