package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// toleranceSeeds adds the tolerance fuzzers' seeds. They cover both signs
// of α, the NaN gap, the boundary, a bound held by the x ≤ M_i clause
// (tiny rewards, a deep gap), and saturation at DriftInf (α = 0 never
// drifts).
func toleranceSeeds(f *testing.F) {
	f.Add(0.5, 0.2, 0.1, 30.0, -2.0, uint8(0))
	f.Add(-0.5, 0.2, 0.1, 30.0, -2.0, uint8(0))
	f.Add(0.7, 0.1, 0.3, 12.0, 0.0, uint8(2))
	f.Add(1.3, 0.4, 0.2, 25.0, 0.0, uint8(1))
	f.Add(-1.3, 0.4, 0.2, 25.0, 0.0, uint8(1))
	f.Add(1.0, 0.0, 0.0, 1e-12, -100.0, uint8(0))
	f.Add(0.0, 0.5, 0.5, 20.0, -1.0, uint8(0))
	f.Add(0.9, 0.3, 0.3, 15.0, 5e-10, uint8(0))
	f.Add(0.9, 0.3, 0.3, 15.0, 2e-9, uint8(0))
}

// toleranceCase returns the skip bound and gap of one fuzz input. The
// bound comes from NewSkipBound over a two-route user, as an agent builds
// it. gapMode picks the gap: as fuzzed, exactly Eps − slack (the
// boundary), or NaN.
func toleranceCase(alpha, beta, gamma, a, gap float64, gapMode uint8) (SkipBound, float64) {
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
	return b, gap
}

// searchTolerance finds the largest drift at which skips holds by binary
// search over [0, DriftInf): the oracle of Tolerance, which estimates it
// by division and corrects the estimate.
func searchTolerance(b *SkipBound, gap float64) uint64 {
	lo, hi := uint64(0), uint64(DriftInf) // skips(lo) holds, skips(hi) fails
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if b.skips(gap, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// FuzzSilenceTolerance checks the tolerance an agent sends with a no-move
// answer against the skip rule it stands for: the returned T must satisfy
// skips at T and fail it at T+1, so the platform contacts the agent at the
// first drift the rule no longer covers and not later.
func FuzzSilenceTolerance(f *testing.F) {
	toleranceSeeds(f)
	f.Fuzz(func(t *testing.T, alpha, beta, gamma, a, gap float64, gapMode uint8) {
		b, gap := toleranceCase(alpha, beta, gamma, a, gap, gapMode)
		T := b.Tolerance(gap)
		if T == DriftInf {
			t.Fatalf("bound %+v gap %g: tolerance DriftInf", b, gap)
		}
		if !b.skips(gap, T) {
			t.Fatalf("bound %+v gap %g: tolerance %d fails the skip rule", b, gap, T)
		}
		if b.skips(gap, T+1) {
			t.Fatalf("bound %+v gap %g: tolerance %d, but drift %d still skips", b, gap, T, T+1)
		}
		if T > 0 && !b.skips(gap, T/2) {
			t.Fatalf("bound %+v gap %g: drift %d fails below tolerance %d", b, gap, T/2, T)
		}
	})
}

// FuzzToleranceMatchesSearch checks Tolerance, an estimate by division
// corrected against the skip rule, against the binary search over every
// drift that it replaces: the two must give the same T.
func FuzzToleranceMatchesSearch(f *testing.F) {
	toleranceSeeds(f)
	f.Fuzz(func(t *testing.T, alpha, beta, gamma, a, gap float64, gapMode uint8) {
		b, gap := toleranceCase(alpha, beta, gamma, a, gap, gapMode)
		if got, want := b.Tolerance(gap), searchTolerance(&b, gap); got != want {
			t.Fatalf("bound %+v gap %g: tolerance %d, search %d", b, gap, got, want)
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
		scanWatched(w, routes, func(k int32, m int32) { got[k] = m })
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

// TestDriftTrackerClassDrift checks the watcher classes against per-task
// pushes: with random q per changed task, some near 2^62 so that sums
// saturate to DriftInf, summing each changed task's q into its class (add)
// and pushing each class's sum once per shard must leave every tracked user
// the drift that pushing each task's q into the task's own watchers —
// listed afresh, a user as often as it watches the task — leaves, bit for
// bit. It tracks every user and a served subset, at W = 1, 2 and 3 shards,
// each shard pushing on its own goroutine.
// The instances must group some tasks into shared classes and saturate
// some drift.
func TestDriftTrackerClassDrift(t *testing.T) {
	s := rng.New(77)
	shared, saturated := 0, 0
	for n := range 24 {
		cfg := DefaultRandomConfig(s.IntRange(2, 60), s.IntRange(1, 80))
		cfg.RoutesMax = s.IntRange(2, 8)
		cfg.TasksPerRouteMax = s.IntRange(1, 12)
		in := RandomInstance(cfg, s.Child())
		var subset []int
		for u := range in.Users {
			if u%3 != 1 {
				subset = append(subset, u)
			}
		}
		for _, users := range [][]int{nil, subset} {
			ids := users
			if ids == nil {
				ids = make([]int, len(in.Users))
				for u := range ids {
					ids[u] = u
				}
			}
			watchers := make([][]int32, len(in.Tasks))
			w := NewWatchScan(len(in.Tasks))
			for li, u := range ids {
				var routes []MoveRoute[task.ID]
				for _, r := range in.Users[u].Routes {
					routes = append(routes, MoveRoute[task.ID]{Tasks: r.Tasks})
				}
				scanWatched(w, routes, func(k task.ID, m int32) {
					for ; m > 0; m-- {
						watchers[k] = append(watchers[k], int32(li))
					}
				})
			}
			for shards := 1; shards <= 3; shards++ {
				tr := NewDriftTracker(len(ids), shards)
				tr.Index(in, users)
				shared += len(in.Tasks) - len(tr.sum)
				for trial := 0; trial < 4; trial++ {
					clear(tr.Drift)
					want := make([]uint64, len(ids))
					for k := range in.Tasks {
						if !s.Bool(0.4) {
							continue
						}
						q := uint64(s.Intn(1<<20)) + 1
						if s.Bool(0.2) {
							q = 1<<62 - uint64(s.Intn(1<<10))
						}
						tr.add(task.ID(k), q)
						for _, u := range watchers[k] {
							if d := want[u] + q; d >= q {
								want[u] = d
							} else {
								want[u] = DriftInf
							}
						}
					}
					var wg sync.WaitGroup // the shards push concurrently, as the engine's do
					for sh := range shards {
						wg.Add(1)
						go func() {
							defer wg.Done()
							tr.Push(sh)
						}()
					}
					wg.Wait()
					tr.Clear()
					for i, d := range tr.Drift {
						if d != want[i] {
							t.Fatalf("instance %d, %d users, %d shards, user %d: class drift %d, per-task pushes %d", n, len(ids), shards, ids[i], d, want[i])
						}
						if d == DriftInf {
							saturated++
						}
					}
				}
			}
		}
	}
	if shared == 0 || saturated == 0 {
		t.Fatalf("%d tasks shared a class, %d drifts saturated: the grouping or saturation went untested", shared, saturated)
	}
}
