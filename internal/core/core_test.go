package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// twoUserInstance builds a small hand-checkable instance:
//
//	task 0: a=6, µ=0      task 1: a=10, µ=0.5
//	user 0: route 0 covers {0}, detour 0, congestion 2
//	        route 1 covers {1}, detour 4, congestion 0
//	user 1: route 0 covers {0,1}, detour 2, congestion 1
//	        route 1 covers {},    detour 0, congestion 3
func twoUserInstance() *Instance {
	return &Instance{
		Phi:   0.5,
		Theta: 0.25,
		Tasks: []task.Task{
			{ID: 0, A: 6, Mu: 0},
			{ID: 1, A: 10, Mu: 0.5},
		},
		Users: []User{
			{
				ID: 0, Alpha: 1, Beta: 1, Gamma: 1,
				Routes: []Route{
					{User: 0, Tasks: []task.ID{0}, Detour: 0, Congestion: 2},
					{User: 0, Tasks: []task.ID{1}, Detour: 4, Congestion: 0},
				},
			},
			{
				ID: 1, Alpha: 2, Beta: 0.5, Gamma: 0.25,
				Routes: []Route{
					{User: 1, Tasks: []task.ID{0, 1}, Detour: 2, Congestion: 1},
					{User: 1, Tasks: nil, Detour: 0, Congestion: 3},
				},
			},
		},
	}
}

func mustProfile(t *testing.T, in *Instance, choices []int) *Profile {
	t.Helper()
	p, err := NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := twoUserInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no users", func(in *Instance) { in.Users = nil }},
		{"phi=0", func(in *Instance) { in.Phi = 0 }},
		{"phi=1", func(in *Instance) { in.Phi = 1 }},
		{"theta out of range", func(in *Instance) { in.Theta = 1.5 }},
		{"bad task index", func(in *Instance) { in.Tasks[1].ID = 0 }},
		{"bad task params", func(in *Instance) { in.Tasks[0].A = -1 }},
		{"bad user index", func(in *Instance) { in.Users[0].ID = 5 }},
		{"zero alpha", func(in *Instance) { in.Users[0].Alpha = 0 }},
		{"negative beta", func(in *Instance) { in.Users[1].Beta = -0.5 }},
		{"empty route set", func(in *Instance) { in.Users[0].Routes = nil }},
		{"route wrong owner", func(in *Instance) { in.Users[0].Routes[0].User = 1 }},
		{"negative detour", func(in *Instance) { in.Users[0].Routes[1].Detour = -1 }},
		{"unknown task", func(in *Instance) { in.Users[0].Routes[0].Tasks = []task.ID{9} }},
		{"duplicate task on route", func(in *Instance) { in.Users[0].Routes[0].Tasks = []task.ID{0, 0} }},
	}
	for _, c := range cases {
		in := twoUserInstance()
		c.mutate(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad instance", c.name)
		}
	}
}

// Validate's duplicate check marks a task per route, not per user or per
// instance: a task may recur across routes, and only a repeat within one
// route is an error.
func TestValidateDuplicateScope(t *testing.T) {
	accept := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"same task on two routes of one user", func(in *Instance) {
			in.Users[0].Routes[0].Tasks = []task.ID{0, 1}
			in.Users[0].Routes[1].Tasks = []task.ID{1, 0}
		}},
		{"same task on routes of different users", func(in *Instance) {
			in.Users[0].Routes[1].Tasks = []task.ID{0, 1}
			in.Users[1].Routes[1].Tasks = []task.ID{1, 0}
		}},
		{"task 0 on the first route", func(in *Instance) { in.Users[0].Routes[0].Tasks = []task.ID{0} }},
	}
	for _, c := range accept {
		in := twoUserInstance()
		c.mutate(in)
		if err := in.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a valid instance: %v", c.name, err)
		}
	}
	reject := []struct {
		name, want string
		mutate     func(*Instance)
	}{
		{"non-adjacent duplicate on a later route of a later user",
			"core: user 1 route 1 covers task 0 twice",
			func(in *Instance) { in.Users[1].Routes[1].Tasks = []task.ID{0, 1, 0} }},
		{"negative task ID",
			"core: user 0 route 1 covers unknown task -1",
			func(in *Instance) { in.Users[0].Routes[1].Tasks = []task.ID{1, -1} }},
	}
	for _, c := range reject {
		in := twoUserInstance()
		c.mutate(in)
		err := in.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad instance", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

// Validate on a road-sized instance (3000 users, 800 tasks, routes of up to
// 51 tasks) allocates only its per-task stamp slice.
func TestValidateAllocs(t *testing.T) {
	cfg := DefaultRandomConfig(3000, 800)
	cfg.TasksPerRouteMax = 51
	in := RandomInstance(cfg, rng.New(7))
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(5, func() { _ = in.Validate() }); a > 1 {
		t.Errorf("Validate allocates %v times per call, want at most 1", a)
	}
}

func TestCounts(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0}) // both cover task 0; user1 also task 1
	if p.Count(0) != 2 || p.Count(1) != 1 {
		t.Errorf("counts = %d,%d want 2,1", p.Count(0), p.Count(1))
	}
	p.SetChoice(0, 1) // user0 moves to task 1
	if p.Count(0) != 1 || p.Count(1) != 2 {
		t.Errorf("after move counts = %d,%d want 1,2", p.Count(0), p.Count(1))
	}
	p.SetChoice(1, 1) // user1 leaves both tasks
	if p.Count(0) != 0 || p.Count(1) != 1 {
		t.Errorf("after second move counts = %d,%d want 0,1", p.Count(0), p.Count(1))
	}
	// No-op move.
	p.SetChoice(1, 1)
	if p.Count(1) != 1 {
		t.Error("no-op move changed counts")
	}
}

func TestProfitEq2(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	// User 0, route 0: reward = share of task0 with n=2 = 6/2 = 3.
	// P_0 = 1*3 − 1*(0.5*0) − 1*(0.25*2) = 3 − 0.5 = 2.5
	if got := p.Profit(0); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("P_0 = %v, want 2.5", got)
	}
	// User 1, route 0: reward = 6/2 + (10+0.5*ln1)/1 = 3 + 10 = 13.
	// P_1 = 2*13 − 0.5*(0.5*2) − 0.25*(0.25*1) = 26 − 0.5 − 0.0625 = 25.4375
	if got := p.Profit(1); math.Abs(got-25.4375) > 1e-12 {
		t.Errorf("P_1 = %v, want 25.4375", got)
	}
	if got := p.TotalProfit(); math.Abs(got-27.9375) > 1e-12 {
		t.Errorf("total = %v, want 27.9375", got)
	}
}

func TestProfitIfMatchesMutation(t *testing.T) {
	in := twoUserInstance()
	for _, start := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		p := mustProfile(t, in, start)
		for i := range in.Users {
			for c := range in.Users[i].Routes {
				want := func() float64 {
					q := p.Clone()
					q.SetChoice(UserID(i), c)
					return q.Profit(UserID(i))
				}()
				if got := p.ProfitIf(UserID(i), c); math.Abs(got-want) > 1e-12 {
					t.Errorf("start=%v ProfitIf(%d,%d) = %v, want %v", start, i, c, got, want)
				}
			}
		}
	}
}

func TestRewardOf(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	if got := p.RewardOf(0); math.Abs(got-3) > 1e-12 {
		t.Errorf("RewardOf(0) = %v, want 3", got)
	}
	if got := p.RewardOf(1); math.Abs(got-13) > 1e-12 {
		t.Errorf("RewardOf(1) = %v, want 13", got)
	}
}

func TestPotentialEq8(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	// Task 0 (n=2): 6/1 + 6/2 = 9. Task 1 (n=1): 10.
	// Cost part: user0 route0: (1/1)*(0.5*0) + (1/1)*(0.25*2) = 0.5
	//            user1 route0: (0.5/2)*(0.5*2) + (0.25/2)*(0.25*1) = 0.25 + 0.03125
	want := 9.0 + 10.0 - 0.5 - 0.25 - 0.03125
	if got := p.Potential(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Φ = %v, want %v", got, want)
	}
}

// TestTheorem2Identity verifies P_i(s') − P_i(s) = α_i(Φ(s') − Φ(s)) on the
// hand-built instance for every user and every move (Eq. 11).
func TestTheorem2Identity(t *testing.T) {
	in := twoUserInstance()
	for _, start := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		p := mustProfile(t, in, start)
		for i := range in.Users {
			for c := range in.Users[i].Routes {
				q := p.Clone()
				q.SetChoice(UserID(i), c)
				dP := q.Profit(UserID(i)) - p.Profit(UserID(i))
				dPhi := q.Potential() - p.Potential()
				if math.Abs(dP-in.Users[i].Alpha*dPhi) > 1e-9 {
					t.Errorf("start=%v user=%d move=%d: ΔP=%v α·ΔΦ=%v", start, i, c, dP, in.Users[i].Alpha*dPhi)
				}
			}
		}
	}
}

func TestBetterAndBestResponses(t *testing.T) {
	// One user, three routes with distinct profits.
	in := &Instance{
		Phi: 0.5, Theta: 0.5,
		Tasks: []task.Task{{ID: 0, A: 10, Mu: 0}, {ID: 1, A: 20 - 1e-6, Mu: 0}},
		Users: []User{{
			ID: 0, Alpha: 1, Beta: 1, Gamma: 1,
			Routes: []Route{
				{User: 0, Tasks: nil},                             // profit 0
				{User: 0, Tasks: []task.ID{0}},                    // profit 10
				{User: 0, Tasks: []task.ID{1}},                    // profit ~20
				{User: 0, Tasks: []task.ID{0}, Detour: 2},         // profit 9
				{User: 0, Tasks: []task.ID{1}, Congestion: 2e-10}, // ties route 2 within Eps
			},
		}},
	}
	p := mustProfile(t, in, []int{0})
	better := p.BetterResponses(0)
	if len(better) != 4 {
		t.Errorf("BetterResponses = %v, want 4 routes", better)
	}
	best := p.BestResponseSet(0)
	if len(best) != 2 || best[0] != 2 || best[1] != 4 {
		t.Errorf("BestResponseSet = %v, want [2 4] (tied within Eps)", best)
	}
	// From the best route: no improvement available.
	p.SetChoice(0, 2)
	if got := p.BestResponseSet(0); len(got) != 0 {
		t.Errorf("BestResponseSet at optimum = %v", got)
	}
	if got := p.BetterResponses(0); len(got) != 0 {
		t.Errorf("BetterResponses at optimum = %v", got)
	}
	if !p.IsNash() {
		t.Error("single user at optimum should be Nash")
	}
}

func TestTau(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	for i := range in.Users {
		for c := range in.Users[i].Routes {
			want := (p.ProfitIf(UserID(i), c) - p.Profit(UserID(i))) / in.Users[i].Alpha
			if got := p.Tau(UserID(i), c); math.Abs(got-want) > 1e-12 {
				t.Errorf("Tau(%d,%d) = %v, want %v", i, c, got, want)
			}
		}
	}
}

func TestMoveTasks(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	// User 0 moving from route 0 (task 0) to route 1 (task 1): B = {0,1}.
	b := p.AppendMoveTasks(nil, 0, 1)
	if len(b) != 2 {
		t.Fatalf("MoveTasks = %v", b)
	}
	seen := map[int]bool{}
	for _, k := range b {
		if seen[k] {
			t.Fatalf("duplicate task in MoveTasks: %v", b)
		}
		seen[k] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("MoveTasks = %v, want {0,1}", b)
	}
	// User 1 moving route0 -> route0 union is just {0,1} without dupes.
	b2 := p.AppendMoveTasks(nil, 1, 0)
	if len(b2) != 2 {
		t.Errorf("self MoveTasks = %v", b2)
	}
}

func TestCoverageAndOverlap(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	if got := p.CoveredTasks(); got != 2 {
		t.Errorf("CoveredTasks = %d", got)
	}
	if got := p.OverlapRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OverlapRatio = %v, want 0.5 (task 0 shared)", got)
	}
	p.SetChoice(1, 1)
	if got := p.CoveredTasks(); got != 1 {
		t.Errorf("CoveredTasks after move = %d", got)
	}
	if got := p.OverlapRatio(); got != 0 {
		t.Errorf("OverlapRatio after move = %v", got)
	}
}

func TestWeightBounds(t *testing.T) {
	in := twoUserInstance()
	lo, hi := in.WeightBounds()
	if lo != 0.25 || hi != 2 {
		t.Errorf("WeightBounds = %v,%v want 0.25,2", lo, hi)
	}
	in.EMin, in.EMax = 0.1, 0.9
	lo, hi = in.WeightBounds()
	if lo != 0.1 || hi != 0.9 {
		t.Errorf("explicit WeightBounds = %v,%v", lo, hi)
	}
	empty := &Instance{}
	if lo, hi = empty.WeightBounds(); lo != 0 || hi != 0 {
		t.Errorf("empty WeightBounds = %v,%v", lo, hi)
	}
}

func TestNewProfileValidation(t *testing.T) {
	in := twoUserInstance()
	if _, err := NewProfile(in, []int{0}); err == nil {
		t.Error("wrong-length choices accepted")
	}
	if _, err := NewProfile(in, []int{0, 5}); err == nil {
		t.Error("out-of-range choice accepted")
	}
}

func TestSetChoicePanics(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range SetChoice did not panic")
		}
	}()
	p.SetChoice(0, 7)
}

func TestCloneIndependence(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	q := p.Clone()
	q.SetChoice(0, 1)
	if p.Choice(0) != 0 || p.Count(1) != 1 {
		t.Error("Clone shares state with original")
	}
	if q.Choice(0) != 1 || q.Count(1) != 2 {
		t.Error("Clone mutation lost")
	}
}

func TestChoicesCopy(t *testing.T) {
	in := twoUserInstance()
	p := mustProfile(t, in, []int{0, 0})
	cs := p.Choices()
	cs[0] = 1
	if p.Choice(0) != 0 {
		t.Error("Choices returned aliased slice")
	}
}

func TestRandomInstanceValid(t *testing.T) {
	s := rng.New(20)
	for trial := 0; trial < 50; trial++ {
		in := RandomInstance(DefaultRandomConfig(8, 12), s.Child())
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandomProfileInRange(t *testing.T) {
	s := rng.New(21)
	in := RandomInstance(DefaultRandomConfig(10, 15), s.Child())
	for trial := 0; trial < 20; trial++ {
		p := RandomProfile(in, s.Child())
		for i, u := range in.Users {
			if c := p.Choice(UserID(i)); c < 0 || c >= len(u.Routes) {
				t.Fatalf("choice out of range: %d", c)
			}
		}
	}
}

// TestShiftShares checks the agents' share update: from the pair
// MoveShares gives at a count, ShiftShares to any new count — one up, one
// down, or a jump — is bit-identical to MoveShares at the new count,
// starting from the agents' initial count −1 as well.
func TestShiftShares(t *testing.T) {
	s := rng.New(41)
	for trial := 0; trial < 2000; trial++ {
		tk := task.Task{A: s.Float64() * 20, Mu: s.Float64()}
		old := s.IntRange(-1, 40)
		n := old + s.IntRange(-1, 1)
		if trial%4 == 0 {
			n = s.IntRange(0, 60)
		}
		n = max(n, 0)
		now, join := MoveShares(tk, old)
		gotNow, gotJoin := ShiftShares(tk, old, n, now, join)
		wantNow, wantJoin := MoveShares(tk, n)
		if math.Float64bits(gotNow) != math.Float64bits(wantNow) || math.Float64bits(gotJoin) != math.Float64bits(wantJoin) {
			t.Fatalf("%+v from %d to %d: (%v, %v), MoveShares (%v, %v)", tk, old, n, gotNow, gotJoin, wantNow, wantJoin)
		}
	}
}
