package engine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// oracleRequests is the stateless request collection every slot used to
// run: probe every user's best response set, draw a route from each
// nonempty one in user order, then price τ_i and B_i on the profile. It
// survives only as the oracle the incremental collector must match.
func oracleRequests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	var reqs []Request
	for i := 0; i < p.Instance().NumUsers(); i++ {
		u := core.UserID(i)
		if delta := p.BestResponseSet(u); len(delta) > 0 {
			reqs = append(reqs, Request{User: u, Route: delta[s.Intn(len(delta))]})
		}
	}
	if withMeta {
		for j := range reqs {
			r := &reqs[j]
			r.Tau = p.Tau(r.User, r.Route)
			r.B = p.AppendMoveTasks(nil, r.User, r.Route)
		}
	}
	return reqs
}

// forceCollectMode runs fn with collectParallelMin pinned so that every
// collection with any work runs its pass on exactly the requested path,
// inline or on goroutines, restoring the threshold afterwards.
func forceCollectMode(parallelPath bool, fn func()) {
	saved := collectParallelMin
	if parallelPath {
		collectParallelMin = 1
	} else {
		collectParallelMin = 1 << 30
	}
	defer func() { collectParallelMin = saved }()
	fn()
}

// TestCollectRequestsParallelMatchesSequential is the determinism contract
// of the sharded pass: for instances large enough to engage the
// parallel evaluation (M ≥ 256), the request sets of a first collection —
// users, proposed routes, τ_i, and B_i — must be identical, element for
// element, to the sequential path's and to the stateless oracle's, and the
// RNG stream must be consumed the same way. Run under -race (make race / make ci) this doubles as the data-race
// regression test for the shard fan-out.
func TestCollectRequestsParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		users, tasks int
		seed         uint64
	}{
		{256, 180, 11},
		{256, 40, 12}, // overlap-heavy: most users share most tasks
		{384, 300, 13},
		{512, 220, 14},
	}
	for _, tc := range cases {
		in := core.RandomInstance(core.DefaultRandomConfig(tc.users, tc.tasks), rng.New(tc.seed))
		p := core.RandomProfile(in, rng.New(tc.seed+1000))
		for _, withMeta := range []bool{false, true} {
			var seq, par []Request
			forceCollectMode(false, func() {
				seq = Requests(p, rng.New(7), withMeta)
			})
			forceCollectMode(true, func() {
				par = Requests(p, rng.New(7), withMeta)
			})
			if len(seq) == 0 {
				t.Fatalf("M=%d: degenerate case, no requesters", tc.users)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("M=%d withMeta=%v: parallel request set diverges from sequential\nseq: %+v\npar: %+v",
					tc.users, withMeta, seq, par)
			}
			if msg := requestsDiff(seq, oracleRequests(p, rng.New(7), withMeta)); msg != "" {
				t.Fatalf("M=%d withMeta=%v: first collection diverges from the stateless oracle: %s", tc.users, withMeta, msg)
			}
			// Identical RNG consumption: the next draw after either path
			// must match.
			s1, s2 := rng.New(7), rng.New(7)
			forceCollectMode(false, func() { Requests(p, s1, withMeta) })
			forceCollectMode(true, func() { Requests(p, s2, withMeta) })
			if a, b := s1.Intn(1<<30), s2.Intn(1<<30); a != b {
				t.Fatalf("M=%d withMeta=%v: RNG streams diverge after collect (%d vs %d)", tc.users, withMeta, a, b)
			}
		}
	}
}

// puuTrace runs PUU from the given choices through its collector and
// returns every slot's requests, the final choices, and the collector's
// shard count.
func puuTrace(in *core.Instance, choices []int) (slots [][]Request, final []int, shards int) {
	p, err := core.NewProfile(in, choices)
	if err != nil {
		panic(err)
	}
	pol := exactPUU()
	s := rng.New(5)
	for len(slots) < 1000 {
		reqs := pol.c.collect(p, s, true)
		slots = append(slots, reqs)
		if len(reqs) == 0 {
			break
		}
		pol.rule(p, s, reqs)
	}
	return slots, p.Choices(), len(pol.c.evs)
}

// boundedTrace runs PUU from the given choices on the collector's bounded
// path, as the policy does, and returns every slot's winners and the final
// choices.
func boundedTrace(in *core.Instance, choices []int) (winners [][]Request, final []int) {
	p, err := core.NewProfile(in, choices)
	if err != nil {
		panic(err)
	}
	var c collector
	s := rng.New(5)
	for len(winners) < 1000 {
		n, w := c.selectPUU(p, s)
		winners = append(winners, w)
		if n == 0 {
			break
		}
		apply(p, w)
	}
	return winners, p.Choices()
}

// collectModesIdentical runs PUU from the given choices with the
// collector's pass forced inline and forced onto goroutines, at 1, 2, 3
// and 5 shards (the shard count follows GOMAXPROCS), and requires every
// run to match the first slot for slot: the same requesters, proposed
// routes, τ bits and B sets, and the same final choices. In every mode the
// bounded path must admit, slot for slot, SelectPUU's winners from the
// first run's requests, and end at its final choices.
func collectModesIdentical(t testing.TB, in *core.Instance, choices []int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]Request
	var wantFinal []int
	for _, shards := range []int{1, 2, 3, 5} {
		runtime.GOMAXPROCS(shards)
		for _, parallelPath := range []bool{false, true} {
			var got, bounded [][]Request
			var final, boundedFinal []int
			var w int
			forceCollectMode(parallelPath, func() {
				got, final, w = puuTrace(in, choices)
				bounded, boundedFinal = boundedTrace(in, choices)
			})
			if w != shards {
				t.Fatalf("collector has %d shards at GOMAXPROCS %d", w, shards)
			}
			if want == nil {
				want, wantFinal = got, final
				if len(want) < 3 {
					t.Fatalf("degenerate run: %d slots", len(want))
				}
			}
			for slot := range min(len(bounded), len(want)) {
				if msg := requestsDiff(bounded[slot], SelectPUU(want[slot])); msg != "" {
					t.Fatalf("%d shards, parallel %v, slot %d: bounded winners: %s", shards, parallelPath, slot, msg)
				}
			}
			if len(bounded) != len(want) || !slices.Equal(boundedFinal, wantFinal) {
				t.Fatalf("%d shards, parallel %v: bounded run of %d slots, first run %d; final choices equal: %v",
					shards, parallelPath, len(bounded), len(want), slices.Equal(boundedFinal, wantFinal))
			}
			for slot := range min(len(got), len(want)) {
				if msg := requestsDiff(got[slot], want[slot]); msg != "" {
					t.Fatalf("%d shards, parallel %v, slot %d: %s", shards, parallelPath, slot, msg)
				}
			}
			if len(got) != len(want) || !slices.Equal(final, wantFinal) {
				t.Fatalf("%d shards, parallel %v: %d slots, first run %d; final choices equal: %v",
					shards, parallelPath, len(got), len(want), slices.Equal(final, wantFinal))
			}
		}
	}
}

// TestRunIdenticalAcrossCollectModes runs PUU on a parallel-sized
// instance through every collect mode and shard count and asserts the
// runs are indistinguishable slot for slot. Under -race (make ci) it also
// races the shards' per-user writes.
func TestRunIdenticalAcrossCollectModes(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(256, 120), rng.New(21))
	collectModesIdentical(t, in, core.RandomProfile(in, rng.New(4)).Choices())
}

// TestRequestsDoesNotMutate asserts the exported Requests helper is a pure
// observation: the profile's choices and aggregates are unchanged by it.
func TestRequestsDoesNotMutate(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(30, 40), rng.New(3))
	p := core.RandomProfile(in, rng.New(4))
	choices := p.Choices()
	phi := p.Potential()
	reqs := Requests(p, rng.New(9), true)
	if len(reqs) == 0 {
		t.Fatal("degenerate profile: no requests")
	}
	if !reflect.DeepEqual(choices, p.Choices()) {
		t.Error("Requests mutated the profile's choices")
	}
	if p.Potential() != phi {
		t.Error("Requests changed the cached potential")
	}
}
