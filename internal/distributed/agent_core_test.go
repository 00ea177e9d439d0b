package distributed_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/trace"
)

// agentCoreMismatch hands every user of p's instance the Init and SlotInfo
// the platform sends at p, and compares the agent with the profile: Δ_i
// must equal BestResponseSet, the Request's B must equal AppendMoveTasks
// for the proposed route, a no-move Request's tolerance must equal the
// engine's, and ΔP_i/α_i of every route, the τ a request
// for it carries, is compared with Tau bit for bit. It returns the number of routes
// whose τ bits differ, the number of routes compared, and the first Δ_i,
// request or B mismatch.
func agentCoreMismatch(p *core.Profile, seed uint64) (tauDiffs, probes int, err error) {
	in := p.Instance()
	counts := make([]int, in.NumTasks())
	for k := range counts {
		counts[k] = p.Count(task.ID(k))
	}
	for u, usr := range in.Users {
		i := core.UserID(u)
		dp, delta, req, err := distributed.AgentProbe(in, u, p.Choice(i), counts, seed+uint64(u))
		if err != nil {
			return tauDiffs, probes, fmt.Errorf("user %d: %w", u, err)
		}
		want := p.BestResponseSet(i)
		if !slices.Equal(delta, want) {
			return tauDiffs, probes, fmt.Errorf("user %d: agent Δ %v, core %v", u, delta, want)
		}
		for c := range usr.Routes {
			if c == p.Choice(i) {
				continue
			}
			probes++
			if math.Float64bits(dp[c]/usr.Alpha) != math.Float64bits(p.Tau(i, c)) {
				tauDiffs++
			}
		}
		if req.HasUpdate != (len(want) > 0) {
			return tauDiffs, probes, fmt.Errorf("user %d: request HasUpdate %v with core Δ %v", u, req.HasUpdate, want)
		}
		if !req.HasUpdate {
			// A no-move answer carries the tolerance the engine's collector
			// would compute: its skip bound over the instance's routes and
			// the gap of the profile's own ΔP_i.
			routes := make([]core.MoveRoute[task.ID], len(usr.Routes))
			dps := make([]float64, len(usr.Routes))
			for c, r := range usr.Routes {
				routes[c] = core.MoveRoute[task.ID]{Tasks: r.Tasks, Detour: in.DetourCost(r), Congestion: in.CongestionCost(r)}
				if c != p.Choice(i) {
					dps[c] = p.ProfitDeltaIf(i, c)
				}
			}
			b := core.NewSkipBound(core.NewWatchScan(in.NumTasks()), usr.Alpha, usr.Beta, usr.Gamma, routes,
				func(k task.ID) task.Task { return in.Tasks[k] })
			if want := b.Tolerance(core.Gap(dps, p.Choice(i))); req.Tolerance != want {
				return tauDiffs, probes, fmt.Errorf("user %d: request tolerance %d, engine's %d", u, req.Tolerance, want)
			}
			continue
		}
		// The request carries the τ counted above: the agent's own ΔP_i/α_i.
		if tau := dp[req.Route] / usr.Alpha; math.Float64bits(req.Tau) != math.Float64bits(tau) {
			return tauDiffs, probes, fmt.Errorf("user %d route %d: request τ %v, agent's ΔP/α %v", u, req.Route, req.Tau, tau)
		}
		if b := p.AppendMoveTasks(nil, i, req.Route); !slices.Equal(req.B, b) {
			return tauDiffs, probes, fmt.Errorf("user %d route %d: request B %v, core %v", u, req.Route, req.B, b)
		}
	}
	return tauDiffs, probes, nil
}

// TestAgentMatchesCore requires the platform's agents and the engine's
// profile to play one game bit for bit: for every user, given the Init and
// SlotInfo the platform really sends, the agent's Δ_i, τ and B equal
// core.Profile's BestResponseSet, Tau and AppendMoveTasks. It covers
// random instances with random profiles and a Shanghai road scenario whose
// routes run past 64 tasks (multi-word overlap masks).
func TestAgentMatchesCore(t *testing.T) {
	tauDiffs, probes := 0, 0
	check := func(name string, p *core.Profile, seed uint64) {
		t.Helper()
		d, n, err := agentCoreMismatch(p, seed)
		tauDiffs, probes = tauDiffs+d, probes+n
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	s := rng.New(23)
	for inst := 0; inst < 200; inst++ {
		in := core.RandomInstance(core.DefaultRandomConfig(60, 40), s.Child())
		check(fmt.Sprintf("random instance %d", inst), core.RandomProfile(in, s.Child()), uint64(inst))
	}

	spec := trace.Shanghai()
	spec.Trips = 40
	w, err := experiments.NewWorld(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: 60, Tasks: 500}, s.Child())
	if err != nil {
		t.Fatal(err)
	}
	in := sc.Instance
	longest := 0
	for _, u := range in.Users {
		for _, r := range u.Routes {
			longest = max(longest, len(r.Tasks))
		}
	}
	if longest <= 64 {
		t.Fatalf("road scenario's longest route has %d tasks; it must need two mask words", longest)
	}
	for prof := 0; prof < 5; prof++ {
		check(fmt.Sprintf("road profile %d", prof), core.RandomProfile(in, s.Child()), uint64(prof))
	}

	t.Logf("%d of %d route probes give τ bits that differ between agent and core", tauDiffs, probes)
	if tauDiffs != 0 {
		t.Fatalf("%d of %d τ values differ in their bits", tauDiffs, probes)
	}
}

// FuzzAgentMatchesCore fuzzes one user's recommended routes, the task
// counts and the current route, and asserts the identity of
// TestAgentMatchesCore. routes lists task IDs, 0xFF starting the next
// route (repeats within a route are dropped); extra[k] mod 4 single-task
// users sit on task k, besides the fuzzed user on its current route.
func FuzzAgentMatchesCore(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 2, 3, 4, 0xFF, 5}, []byte{0, 1, 2, 3, 0, 1}, uint8(0), uint8(7))
	f.Add([]byte{0, 0xFF, 0xFF, 0}, []byte{3}, uint8(1), uint8(0))
	long := make([]byte, 0, 300)
	for k := 0; k < 100; k++ {
		long = append(long, byte(k))
	}
	long = append(long, 0xFF)
	for k := 30; k < 130; k++ {
		long = append(long, byte(k))
	}
	f.Add(long, []byte{2, 0, 1, 3, 1}, uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, routes, extra []byte, cur, w uint8) {
		const nTasks = 0xFF
		in := &core.Instance{Phi: 0.5, Theta: 0.3}
		for k := 0; k < nTasks; k++ {
			in.Tasks = append(in.Tasks, task.Task{ID: task.ID(k), A: 1 + float64(k%11), Mu: float64(k%5) / 4})
		}
		u := core.User{Alpha: 0.2 + float64(w%16)/8, Beta: 0.1 + float64(w/16)/10, Gamma: 0.3}
		r := core.Route{}
		seen := map[task.ID]bool{}
		flush := func() {
			r.Detour = float64(len(u.Routes)*37%11) + float64(len(r.Tasks))/3
			r.Congestion = float64(len(u.Routes)*13%7) / 2
			u.Routes = append(u.Routes, r)
			r, seen = core.Route{}, map[task.ID]bool{}
		}
		for _, b := range routes {
			if b == 0xFF {
				flush()
				continue
			}
			if k := task.ID(b); !seen[k] {
				seen[k] = true
				r.Tasks = append(r.Tasks, k)
			}
		}
		flush()
		if len(u.Routes) > 16 {
			t.Skip("more routes than a user is recommended")
		}
		in.Users = append(in.Users, u)
		choices := []int{int(cur) % len(u.Routes)}
		for k, e := range extra {
			for range int(e % 4) {
				in.Users = append(in.Users, core.User{
					ID: core.UserID(len(in.Users)), Alpha: 1, Beta: 1, Gamma: 1,
					Routes: []core.Route{{User: core.UserID(len(in.Users)), Tasks: []task.ID{task.ID(k % nTasks)}}},
				})
				choices = append(choices, 0)
			}
		}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProfile(in, choices)
		if err != nil {
			t.Fatal(err)
		}
		if d, n, err := agentCoreMismatch(p, uint64(w)); err != nil || d != 0 {
			t.Fatalf("%d of %d τ values differ; %v", d, n, err)
		}
	})
}
