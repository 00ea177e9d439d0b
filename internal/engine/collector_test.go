package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// collectingFactories are the policies that gather their requests through
// a collector and apply them with a rule.
var collectingFactories = []PolicyFactory{NewSUU, NewPUU, NewBUAU, NewInertialParallel(0.5), NewUnsafeParallel}

// exactPUU is PUU on the collector's exact path — collect with τ and B,
// then SelectPUU — which its bounded path must match.
func exactPUU() *collecting {
	return &collecting{name: "MUUN", meta: true, rule: func(p *core.Profile, _ *rng.Stream, reqs []Request) []core.UserID {
		return apply(p, SelectPUU(reqs))
	}}
}

// exactPolicy returns a fresh policy of the factory as a collecting
// policy, PUU as exactPUU.
func exactPolicy(factory PolicyFactory) *collecting {
	pol := factory()
	if _, ok := pol.(*puu); ok {
		return exactPUU()
	}
	return pol.(*collecting)
}

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
	pol := exactPolicy(factory)
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
		for _, d := range pol.c.tr.Drift {
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

// boundedDifferential runs PUU from the given choices twice in lockstep:
// on the collector's bounded path, and on its exact path — collect with τ
// and B, then SelectPUU — on a twin profile and stream. Every slot the
// requester counts, the winners (users, routes, τ bits, B), and the next
// draws of the two streams must agree; with external set, a third stream
// now and then moves a random user on both profiles outside the policy.
// The final choices must agree. It returns the slots run and the
// requester-slots the bounded path left certified, unprobed with a
// nonzero drift, after its selection.
func boundedDifferential(t testing.TB, in *core.Instance, choices []int, seed uint64, maxSlots int, external bool) (slots, certified int) {
	t.Helper()
	var bounded, exact collector
	pa, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := core.NewProfile(in, choices)
	sa, sb, ext := rng.New(seed), rng.New(seed), rng.New(seed+1)
	for ; slots < maxSlots; slots++ {
		n, got := bounded.selectPUU(pa, sa)
		reqs := exact.collect(pb, sb, true)
		want := SelectPUU(reqs)
		if n != len(reqs) {
			t.Fatalf("slot %d: %d requesters on the bounded path, %d on the exact one", slots, n, len(reqs))
		}
		if msg := requestsDiff(got, want); msg != "" {
			t.Fatalf("slot %d: bounded winners: %s", slots, msg)
		}
		if a, b := sa.Intn(1<<30), sb.Intn(1<<30); a != b {
			t.Fatalf("slot %d: streams diverge after selection (%d vs exact %d)", slots, a, b)
		}
		for i, d := range bounded.tr.Drift {
			if d > 0 && bounded.nd[i] > 0 {
				certified++
			}
		}
		if n == 0 {
			break
		}
		apply(pa, got)
		apply(pb, want)
		if external && ext.Bool(0.2) {
			i := core.UserID(ext.Intn(in.NumUsers()))
			c := ext.Intn(len(in.Users[i].Routes))
			pa.SetChoice(i, c)
			pb.SetChoice(i, c)
		}
	}
	if !slices.Equal(pa.Choices(), pb.Choices()) {
		t.Fatal("final choices of the bounded run diverge from the exact run")
	}
	return slots, certified
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
	pol := exactPUU()
	s := rng.New(5)
	probes, slots, skips := 0, 0, 0
	for ; ; slots++ {
		reqs := pol.c.collect(p, s, true)
		if slots > 0 {
			probes += pol.c.probes
		}
		for _, d := range pol.c.tr.Drift {
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

// TestCollectorProbesPastTolerance pins the collector's skip rule to its
// tracker's, drift > tolerance, at the boundary: with every user's drift
// set to its tolerance or one unit past it, a pass must probe exactly the
// users one unit past. Real drift sums rarely land on the boundary, so the
// differential tests alone would miss a rule off by one unit. Some users
// must have a tolerance above 0 (a cached Δ_i = ∅).
func TestCollectorProbesPastTolerance(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(256, 120), rng.New(21))
	p := core.RandomProfile(in, rng.New(4))
	var c collector
	c.refresh(p, false)
	c.refresh(p, false) // the second collection builds the index and the tolerances
	past, tolerant := 0, 0
	want := make([]bool, len(c.tr.Drift)) // set one unit past the tolerance
	for i, tol := range c.tr.Tol {
		if tol > 0 {
			tolerant++
		}
		c.tr.Drift[i] = tol
		if i%2 == 0 && tol < core.DriftInf-1 {
			c.tr.Drift[i], want[i] = tol+1, true
			past++
		}
	}
	before := slices.Clone(c.tr.Drift)
	c.probes = 0
	c.pass(0)
	for i, d := range c.tr.Drift {
		if probed := d != before[i]; probed != want[i] {
			t.Fatalf("user %d, tolerance %d: drift %d before the pass, %d after", i, c.tr.Tol[i], before[i], d)
		}
	}
	if c.probes != past || tolerant == 0 {
		t.Fatalf("%d probes for %d users past their tolerance; %d users with a tolerance above 0", c.probes, past, tolerant)
	}
}

// TestCollectorCertifiedIsSound checks the certification rule against the
// Δ_i rule it protects: whenever certified(i, x) holds for a cached ΔP_i
// vector whose Δ_i is {c*}, moving the values by just under x the worst
// way — ΔP_i(c*) down, every other route up — keeps core's Δ_i at {c*}.
// The vectors straddle the rule's boundaries, with x from well below to
// well above Eps, and some must be certified.
func TestCollectorCertifiedIsSound(t *testing.T) {
	s := rng.New(5)
	certified := 0
	for trial := 0; trial < 20000; trial++ {
		n := s.IntRange(2, 6)
		cur, best := s.Intn(n), s.Intn(n)
		if cur == best {
			continue
		}
		x := core.Eps * math.Pow(10, 2*s.Float64()-1)
		dp := make([]float64, n)
		dp[best] = x + 3*s.Float64()*(core.Eps+x)
		for r := range dp {
			if r != cur && r != best {
				dp[r] = dp[best] - 2*x - core.Eps + 4*(s.Float64()-0.5)*(x+core.Eps)
			}
		}
		if d := core.BestResponseSetOf([]int(nil), dp, cur); len(d) != 1 || d[0] != best {
			continue
		}
		c := collector{off: []int32{0, int32(n)}, dp: dp, nd: []int32{1}, delta: []int32{int32(best)}, choice: []int32{int32(cur)}}
		if !c.certified(0, x) {
			continue
		}
		certified++
		moved := slices.Clone(dp)
		for r := range moved {
			switch r {
			case cur:
			case best:
				moved[r] -= x * (1 - 0x1p-20)
			default:
				moved[r] += x * (1 - 0x1p-20)
			}
		}
		if d := core.BestResponseSetOf([]int(nil), moved, cur); len(d) != 1 || d[0] != best {
			t.Fatalf("certified ΔP %v (x = %g, cur %d, c* %d), but moved to %v Δ_i = %v", dp, x, cur, best, moved, d)
		}
	}
	if certified < 100 {
		t.Fatalf("only %d vectors certified", certified)
	}
}

// TestCollectorKeyBoundsDelta checks a certified requester's selection key
// against every fresh ΔP_i(c*) its certification allows: of the floats in
// the real interval [dp − x, dp + x], x as key computes it, the one with
// the largest δ — the top float for α_i > 0, the bottom one for α_i < 0 —
// must give a δ no greater than the key. The magnitudes are spread so that
// the sum and both divisions round.
func TestCollectorKeyBoundsDelta(t *testing.T) {
	s := rng.New(9)
	for trial := 0; trial < 100000; trial++ {
		alpha := math.Ldexp(1+s.Float64(), s.IntRange(-8, 8))
		if s.Bool(0.5) {
			alpha = -alpha
		}
		d := math.Ldexp(s.Float64(), s.IntRange(-30, 10))
		slack := math.Ldexp(s.Float64(), s.IntRange(-60, 0))
		drift := uint64(s.Intn(1<<40)) + 1
		c := collector{
			in:   &core.Instance{Users: []core.User{{Alpha: alpha}}},
			off:  []int32{0, 2},
			dp:   []float64{0, d},
			tr:   &core.DriftTracker{Drift: []uint64{drift}},
			skip: []core.SkipBound{{Alpha: math.Abs(alpha), Slack: slack}},
		}
		r := Request{Route: 1, B: make([]int, s.IntRange(1, 9))}
		key := c.key(0, &r)
		x := big.NewFloat(c.skip[0].Spread(drift) + slack)
		end := new(big.Float).SetPrec(2000).SetFloat64(d)
		var v float64
		if alpha > 0 {
			var acc big.Accuracy
			if v, acc = end.Add(end, x).Float64(); acc == big.Above {
				v = math.Nextafter(v, math.Inf(-1))
			}
		} else {
			var acc big.Accuracy
			if v, acc = end.Sub(end, x).Float64(); acc == big.Below {
				v = math.Nextafter(v, math.Inf(1))
			}
		}
		fresh := Request{Tau: v / alpha, B: r.B}
		if key.exact || cmp.Compare(fresh.delta(), key.d) > 0 {
			t.Fatalf("dp %v, α %v, x %v, |B| %d: key %+v, but ΔP %v gives δ %v", d, alpha, x, len(r.B), key, v, fresh.delta())
		}
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
			got := slices.Clone(pol.c.requesters(p, false))
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
