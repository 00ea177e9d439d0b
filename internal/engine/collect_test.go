package engine

import (
	"reflect"
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
// collection probes on exactly the requested path regardless of how many
// users it probes, restoring the threshold afterwards.
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
// of the sharded probe path: for instances large enough to engage the
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

// TestRunIdenticalAcrossCollectModes runs the full protocol on a
// parallel-sized instance with the threshold forced both ways and asserts
// the runs are indistinguishable: same slots, same updates, same final
// choices.
func TestRunIdenticalAcrossCollectModes(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(256, 120), rng.New(21))
	run := func(parallelPath bool) Result {
		var res Result
		forceCollectMode(parallelPath, func() {
			res = Run(in, NewPUU, rng.New(5), Config{MaxSlots: 400})
		})
		return res
	}
	a, b := run(false), run(true)
	if a.Slots != b.Slots || a.Converged != b.Converged || a.TotalUpdates != b.TotalUpdates {
		t.Fatalf("run shape diverged: sequential (slots=%d conv=%v upd=%d) vs parallel (slots=%d conv=%v upd=%d)",
			a.Slots, a.Converged, a.TotalUpdates, b.Slots, b.Converged, b.TotalUpdates)
	}
	if !reflect.DeepEqual(a.Profile.Choices(), b.Profile.Choices()) {
		t.Fatal("final choices diverged between sequential and parallel collect paths")
	}
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
