package distributed

import (
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// oracleAgent is the map-based best-response evaluation the agent's dense
// view replaced, kept as a test oracle. It reads the Init and SlotInfo
// payloads directly: a membership map of the current route per probe, a
// map lookup per task, and the Eq. 1/2 share written out by hand. Its Δ_i
// and B come from absolute profits and set membership; its move gains
// (deltaOf) run core's move kernel over the payloads' own task IDs, so a
// bit-exact comparison checks the agent's dense view, not its arithmetic.
type oracleAgent struct {
	alpha, beta, gamma float64
	routes             []wire.RouteInfo
	tasks              map[int]wire.TaskParam
	counts             map[int]int
	current            int
}

// share returns w_k(n)/n for task k computed from the public parameters.
func (o *oracleAgent) share(k, n int) float64 {
	if n <= 0 {
		return 0
	}
	p, ok := o.tasks[k]
	if !ok {
		return 0
	}
	return (p.A + p.Mu*math.Log(float64(n))) / float64(n)
}

// profitOf evaluates Eq. 2 for route c with the own-membership adjustment
// of the Theorem-2 proof.
func (o *oracleAgent) profitOf(c int) float64 {
	onCurrent := map[int]bool{}
	for _, k := range o.routes[o.current].Tasks {
		onCurrent[k] = true
	}
	r := o.routes[c]
	var reward float64
	for _, k := range r.Tasks {
		n := o.counts[k]
		if !onCurrent[k] {
			n++
		}
		reward += o.share(k, n)
	}
	return o.alpha*reward - o.beta*r.DetourCost - o.gamma*r.CongestionCost
}

// bestResponseSet computes Δ_i (Algorithm 1 line 10).
func (o *oracleAgent) bestResponseSet() []int {
	cur := o.profitOf(o.current)
	best := cur
	var out []int
	for c := range o.routes {
		if c == o.current {
			continue
		}
		v := o.profitOf(c)
		switch {
		case v > best+core.Eps:
			best = v
			out = out[:0]
			out = append(out, c)
		case v > cur+core.Eps && v >= best-core.Eps && len(out) > 0:
			out = append(out, c)
		}
	}
	return out
}

// deltaOf returns ΔP_i of the move to route c, evaluated by core's move
// kernel on a view indexed by task ID: shares from the oracle's own share,
// masks built over the routes' task IDs.
func (o *oracleAgent) deltaOf(c int) float64 {
	size := 0
	tasks := make([][]int, len(o.routes))
	for r, ri := range o.routes {
		tasks[r] = ri.Tasks
		for _, k := range ri.Tasks {
			size = max(size, k+1)
		}
	}
	now, join := make([]float64, size), make([]float64, size)
	for k := range size {
		now[k], join[k] = o.share(k, o.counts[k]), o.share(k, o.counts[k]+1)
	}
	m := core.NewRouteMasks(tasks, size)
	v := core.MoveView[int]{Alpha: o.alpha, Beta: o.beta, Gamma: o.gamma, Masks: &m, Shares: &core.Shares{Now: now, Join: join}}
	for _, ri := range o.routes {
		v.Routes = append(v.Routes, core.MoveRoute[int]{Tasks: ri.Tasks, Detour: ri.DetourCost, Congestion: ri.CongestionCost})
	}
	return v.Delta(o.current, c)
}

// moveTasks returns B_i: the union of tasks on the current and proposed
// routes, current route first.
func (o *oracleAgent) moveTasks(c int) []int {
	seen := map[int]bool{}
	var out []int
	for _, k := range o.routes[o.current].Tasks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, k := range o.routes[c].Tasks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// sinkConn is an agent transport that discards everything it is sent but
// keeps the last message.
type sinkConn struct{ last *wire.Message }

func (c *sinkConn) Send(m *wire.Message) error   { c.last = m; return nil }
func (c *sinkConn) Recv() (*wire.Message, error) { return nil, io.EOF }
func (c *sinkConn) Close() error                 { return nil }

// randomAgentInit draws an Init over a small task pool, so routes share
// tasks. It covers sorted and unsorted routes, routes with no tasks,
// identical routes (ties in Δ_i), and route tasks sent without
// parameters.
func randomAgentInit(s *rng.Stream, user int) *wire.Init {
	pool := 1 + s.Intn(12)
	base := s.Intn(1000)
	in := &wire.Init{User: user, Tasks: map[int]wire.TaskParam{}, CurrentRoute: -1}
	nRoutes := 1 + s.Intn(5)
	for c := 0; c < nRoutes; c++ {
		if c > 0 && s.Bool(0.15) {
			in.Routes = append(in.Routes, in.Routes[s.Intn(c)])
			continue
		}
		r := wire.RouteInfo{
			DetourCost:     s.Uniform(0, 20),
			CongestionCost: s.Uniform(0, 20),
		}
		for _, j := range s.Perm(pool)[:s.Intn(min(pool, 8)+1)] {
			r.Tasks = append(r.Tasks, base+j)
		}
		if s.Bool(0.5) {
			slices.Sort(r.Tasks) // as the scenario builder's coverage queries list them
		}
		in.Routes = append(in.Routes, r)
	}
	for k := base; k < base+pool; k++ {
		if s.Bool(0.9) {
			in.Tasks[k] = wire.TaskParam{A: s.Uniform(10, 20), Mu: s.Uniform(0, 1)}
		}
	}
	return in
}

// randomSlotInfo quotes counts for the Init's tasks: zeros included, and
// some tasks left out (they count zero).
func randomSlotInfo(s *rng.Stream, in *wire.Init, slot int) *wire.SlotInfo {
	si := &wire.SlotInfo{Slot: slot, Counts: map[int]int{}}
	for _, r := range in.Routes {
		for _, k := range r.Tasks {
			if s.Bool(0.9) {
				si.Counts[k] = s.Intn(4)
			}
		}
	}
	return si
}

// TestAgentMatchesOracle drives the dense agent and the map-based oracle
// through the same randomized slot sequences, grants, and resume Inits,
// and requires bit-identical move gains and τ (against core's kernel on the
// oracle's view), the same Δ_i, and the same B in the same order.
func TestAgentMatchesOracle(t *testing.T) {
	s := rng.New(7)
	for inst := 0; inst < 300; inst++ {
		init := randomAgentInit(s, 1)
		cfg := AgentConfig{
			User:  1,
			Alpha: s.Uniform(0.2, 2), Beta: s.Uniform(0, 1), Gamma: s.Uniform(0, 1),
			Seed:          uint64(inst),
			Deterministic: s.Bool(0.5),
		}
		conn := &sinkConn{}
		a := NewAgent(conn, cfg)
		if err := a.handleInit(init); err != nil {
			t.Fatal(err)
		}
		o := &oracleAgent{alpha: cfg.Alpha, beta: cfg.Beta, gamma: cfg.Gamma,
			routes: init.Routes, tasks: init.Tasks, current: a.current}
		for slot := 1; slot <= 12; slot++ {
			si := randomSlotInfo(s, init, slot)
			o.counts = si.Counts
			if err := a.handleSlot(si); err != nil {
				t.Fatal(err)
			}
			for c := range init.Routes {
				if c == o.current {
					continue
				}
				got, want := a.dp[c], o.deltaOf(c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("instance %d slot %d: ΔP of route %d = %v, kernel %v", inst, slot, c, got, want)
				}
			}
			wantDelta := o.bestResponseSet()
			if got := a.bestResponseSet(); !slices.Equal(got, wantDelta) {
				t.Fatalf("instance %d slot %d: Δ = %v, oracle %v", inst, slot, got, wantDelta)
			}
			req := conn.last.Request
			if req.HasUpdate != (len(wantDelta) > 0) {
				t.Fatalf("instance %d slot %d: HasUpdate %v with oracle Δ %v", inst, slot, req.HasUpdate, wantDelta)
			}
			if req.HasUpdate {
				wantTau := o.deltaOf(req.Route) / cfg.Alpha
				if math.Float64bits(req.Tau) != math.Float64bits(wantTau) {
					t.Fatalf("instance %d slot %d: τ = %v, oracle %v", inst, slot, req.Tau, wantTau)
				}
				if want := o.moveTasks(req.Route); !slices.Equal(req.B, want) {
					t.Fatalf("instance %d slot %d: B = %v, oracle %v", inst, slot, req.B, want)
				}
				if s.Bool(0.5) {
					if err := a.handleGrant(&wire.Grant{Slot: slot}); err != nil {
						t.Fatal(err)
					}
					o.current = req.Route
				}
			}
			if s.Bool(0.1) {
				// A resume Init rebuilds the view around the recorded route.
				resume := *init
				resume.CurrentRoute = s.Intn(len(init.Routes))
				if err := a.handleInit(&resume); err != nil {
					t.Fatal(err)
				}
				o.current = resume.CurrentRoute
			}
			if a.current != o.current {
				t.Fatalf("instance %d slot %d: agent on route %d, oracle on %d", inst, slot, a.current, o.current)
			}
		}
	}
}

// TestAgentRejectsRepeatedRouteTask checks that an Init whose route lists
// a task twice fails, as core.Instance.Validate fails such a route.
func TestAgentRejectsRepeatedRouteTask(t *testing.T) {
	in := &wire.Init{User: 0, CurrentRoute: -1, Tasks: map[int]wire.TaskParam{3: {A: 10}, 5: {A: 12}},
		Routes: []wire.RouteInfo{{Tasks: []int{3, 5}}, {Tasks: []int{5, 3, 5}}}}
	err := NewAgent(&sinkConn{}, AgentConfig{User: 0, Alpha: 1}).handleInit(in)
	if err == nil || !strings.Contains(err.Error(), "covers task 5 twice") {
		t.Fatalf("handleInit = %v, want a repeated-task error", err)
	}
}
