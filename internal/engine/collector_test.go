package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// collectingFactories are the policies that gather their requests through
// a collector and apply them with a rule.
var collectingFactories = []PolicyFactory{NewSUU, NewPUU, NewBUAU, NewInertialParallel(0.5), NewUnsafeParallel}

// requestsDiff describes the first difference between two request sets —
// user, route, the bits of τ_i, or B_i — or returns "" when they agree.
func requestsDiff(got, want []Request) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d requests, oracle %d", len(got), len(want))
	}
	for j, g := range got {
		w := want[j]
		switch {
		case g.User != w.User || g.Route != w.Route:
			return fmt.Sprintf("request %d is user %d → route %d, oracle user %d → route %d", j, g.User, g.Route, w.User, w.Route)
		case math.Float64bits(g.Tau) != math.Float64bits(w.Tau):
			return fmt.Sprintf("user %d τ = %v, oracle %v", g.User, g.Tau, w.Tau)
		case !slices.Equal(g.B, w.B):
			return fmt.Sprintf("user %d B = %v, oracle %v", g.User, g.B, w.B)
		}
	}
	return ""
}

// collectorDifferential drives one run of a collecting policy twice in
// lockstep from the given choices: once through the policy's collector,
// once through the stateless oracle on a twin profile and stream. Every
// slot the two request sets must agree bit for bit and the next draws of
// the two streams must match; then the policy's rule applies each side's
// requests to its own profile. With external set, a third stream now and
// then moves a random user on both profiles outside the policy. The final
// choices must agree. It returns the slots run and the number of user
// evaluations the collector settled without a probe because of the drift
// bound.
func collectorDifferential(t testing.TB, in *core.Instance, choices []int, factory PolicyFactory, seed uint64, maxSlots int, external bool) (slots, skips int) {
	t.Helper()
	pol := factory().(*collecting)
	pa, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := core.NewProfile(in, choices)
	sa, sb, ext := rng.New(seed), rng.New(seed), rng.New(seed+1)
	for ; slots < maxSlots; slots++ {
		got := pol.c.collect(pa, sa, pol.meta)
		want := oracleRequests(pb, sb, pol.meta)
		if msg := requestsDiff(got, want); msg != "" {
			t.Fatalf("%s slot %d: %s", pol.name, slots, msg)
		}
		if a, b := sa.Intn(1<<30), sb.Intn(1<<30); a != b {
			t.Fatalf("%s slot %d: streams diverge after collection (%d vs oracle %d)", pol.name, slots, a, b)
		}
		for _, d := range pol.c.drift {
			if d > 0 {
				skips++ // left unprobed with a nonzero drift
			}
		}
		if len(got) == 0 {
			break
		}
		if ua, ub := pol.rule(pa, sa, got), pol.rule(pb, sb, want); !slices.Equal(ua, ub) {
			t.Fatalf("%s slot %d: updated %v, oracle run %v", pol.name, slots, ua, ub)
		}
		if external && ext.Bool(0.2) {
			i := core.UserID(ext.Intn(in.NumUsers()))
			c := ext.Intn(len(in.Users[i].Routes))
			pa.SetChoice(i, c)
			pb.SetChoice(i, c)
		}
	}
	if !slices.Equal(pa.Choices(), pb.Choices()) {
		t.Fatalf("%s: final choices diverge from the oracle run", pol.name)
	}
	return slots, skips
}

// differentialInstances returns the random instances of the collector
// differential: Table-2 instances of assorted sizes and route shapes,
// tie-heavy instances with small integer weights and rewards, and
// instances where many users have a single route.
func differentialInstances() []*core.Instance {
	s := rng.New(2024)
	random := func() *core.Instance {
		cfg := core.DefaultRandomConfig(s.IntRange(2, 60), s.IntRange(1, 80))
		cfg.RoutesMax = s.IntRange(2, 8)
		cfg.TasksPerRouteMax = s.IntRange(1, 12)
		return core.RandomInstance(cfg, s.Child())
	}
	var out []*core.Instance
	for n := 0; n < 40; n++ {
		out = append(out, random())
	}
	for n := 0; n < 12; n++ {
		in := random()
		in.Phi, in.Theta = 0.5, 0.5
		for k := range in.Tasks {
			in.Tasks[k].A, in.Tasks[k].Mu = float64(s.IntRange(1, 3)), float64(s.Intn(2))
		}
		for i := range in.Users {
			u := &in.Users[i]
			u.Alpha, u.Beta, u.Gamma = float64(s.IntRange(1, 3)), float64(s.IntRange(1, 3)), float64(s.IntRange(1, 3))
			for r := range u.Routes {
				u.Routes[r].Detour, u.Routes[r].Congestion = float64(s.Intn(3)), float64(s.Intn(3))
			}
		}
		out = append(out, in)
	}
	for n := 0; n < 10; n++ {
		in := random()
		for i := range in.Users {
			if s.Bool(0.4) {
				in.Users[i].Routes = in.Users[i].Routes[:1]
			}
		}
		out = append(out, in)
	}
	return out
}

// TestCollectorMatchesOracle is the differential proof of the incremental
// collector: on every instance, for every collecting policy, with and
// without moves made outside the policy, each slot's requests, the stream
// state after them, and the final choices equal the stateless oracle's.
func TestCollectorMatchesOracle(t *testing.T) {
	ins := differentialInstances()
	for n, in := range ins {
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
	}
	totalSkips := 0
	for n, in := range ins {
		choices := core.RandomProfile(in, rng.New(uint64(n))).Choices()
		for f, factory := range collectingFactories {
			for _, external := range []bool{false, true} {
				_, skips := collectorDifferential(t, in, choices, factory, uint64(100*n+f), 400, external)
				totalSkips += skips
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("the drift bound never spared a probe: the skip path went untested")
	}
}

// TestCollectorMatchesOracleParallel runs the differential on
// parallel-sized instances with every probe batch forced onto the sharded
// path, so the fan-out's per-user cache writes are checked (and, under
// -race, raced) slot after slot.
func TestCollectorMatchesOracleParallel(t *testing.T) {
	for _, tc := range []struct{ users, tasks int }{{256, 120}, {300, 60}} {
		in := core.RandomInstance(core.DefaultRandomConfig(tc.users, tc.tasks), rng.New(uint64(tc.users)))
		choices := core.RandomProfile(in, rng.New(3)).Choices()
		forceCollectMode(true, func() {
			for f, factory := range collectingFactories {
				collectorDifferential(t, in, choices, factory, uint64(f), 300, f%2 == 0)
			}
		})
	}
}

// TestCollectorProbesFewUsers pins the point of the collector: on a
// PUU run at M=256 the later slots probe a small share of the users, and
// the drift bound, not just exact reuse, spares some of the probes.
func TestCollectorProbesFewUsers(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(256, 120), rng.New(21))
	p := core.RandomProfile(in, rng.New(4))
	pol := NewPUU().(*collecting)
	s := rng.New(5)
	probes, slots, skips := 0, 0, 0
	for ; ; slots++ {
		reqs := pol.c.collect(p, s, true)
		if slots > 0 {
			probes += len(pol.c.probes)
		}
		for _, d := range pol.c.drift {
			if d > 0 {
				skips++
			}
		}
		if len(reqs) == 0 {
			break
		}
		pol.rule(p, s, reqs)
	}
	if !p.IsNash() {
		t.Fatal("run did not end at a Nash equilibrium")
	}
	if slots < 2 {
		t.Fatalf("degenerate run: %d slots", slots)
	}
	if per := float64(probes) / float64(slots); per > 0.5*float64(in.NumUsers()) {
		t.Errorf("%.1f probes per slot after the first, want at most half of M=%d", per, in.NumUsers())
	}
	if skips == 0 {
		t.Error("the drift bound never spared a probe")
	}
}

// TestBaselineRequestersMatchOracle checks the collector's RNG-free
// requester list, which BRUN and BATS scan, against the per-user probes it
// replaces, slot after slot of a BRUN run: users with a better response
// are exactly the users with a nonempty best response set.
func TestBaselineRequestersMatchOracle(t *testing.T) {
	for n, in := range differentialInstances()[:20] {
		p := core.RandomProfile(in, rng.New(uint64(n)))
		pol := NewBRUN().(*brun)
		s := rng.New(uint64(n))
		for slot := 0; slot < 400; slot++ {
			got := slices.Clone(pol.c.requesters(p))
			var want []core.UserID
			for i := range in.Users {
				if len(p.BetterResponses(core.UserID(i))) > 0 {
					want = append(want, core.UserID(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("instance %d slot %d: requesters %v, oracle %v", n, slot, got, want)
			}
			if req, _ := pol.SelectAndUpdate(p, s); req == 0 {
				break
			}
		}
	}
}
