package distributed

import (
	"testing"

	"repro/internal/wire"
)

// roadLikeAgent returns an initialized agent with road-scenario sizes: 3
// routes of 33 tasks each, consecutive routes sharing 15 tasks (69
// distinct), and the SlotInfo of one slot over them. With improve set,
// route 1 is far cheaper than the current route 0, so every slot yields an
// update request; otherwise route 0 is best and the agent stays put.
func roadLikeAgent(tb testing.TB, improve bool) (*Agent, *wire.SlotInfo) {
	tb.Helper()
	in := &wire.Init{User: 0, Tasks: map[int]wire.TaskParam{}, CurrentRoute: -1}
	si := &wire.SlotInfo{Slot: 1, Counts: map[int]int{}}
	for c := 0; c < 3; c++ {
		r := wire.RouteInfo{DetourCost: 100, CongestionCost: 1}
		for j := 0; j < 33; j++ {
			k := 1000 + 18*c + j
			r.Tasks = append(r.Tasks, k)
			in.Tasks[k] = wire.TaskParam{A: 10 + float64(j%7), Mu: 0.5}
			si.Counts[k] = j % 4
		}
		in.Routes = append(in.Routes, r)
	}
	if improve {
		in.Routes[1].DetourCost = 0
	} else {
		in.Routes[0].DetourCost = 0
	}
	a := NewAgent(&sinkConn{}, AgentConfig{User: 0, Alpha: 1, Beta: 1, Gamma: 1, Deterministic: true})
	if err := a.handleInit(in); err != nil {
		tb.Fatal(err)
	}
	return a, si
}

// TestAgentSlotAllocs gates the agent's per-slot path: evaluating Δ_i
// allocates nothing, and a whole slot allocates only the outgoing Request
// (message, request, and B when it carries an update).
func TestAgentSlotAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		improve bool
		max     float64
	}{
		{"update", true, 3},
		{"no-update", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, si := roadLikeAgent(t, tc.improve)
			if err := a.handleSlot(si); err != nil { // warm the scratch slices
				t.Fatal(err)
			}
			if got := len(a.delta) > 0; got != tc.improve {
				t.Fatalf("update request = %v, want %v", got, tc.improve)
			}
			eval := testing.AllocsPerRun(100, func() {
				a.loadCounts(si)
				a.bestResponseSet()
			})
			if eval != 0 {
				t.Errorf("best-response evaluation allocates %.1f times, want 0", eval)
			}
			slot := testing.AllocsPerRun(100, func() {
				if err := a.handleSlot(si); err != nil {
					t.Fatal(err)
				}
			})
			if slot > tc.max {
				t.Errorf("handleSlot allocates %.1f times, want <= %.0f", slot, tc.max)
			}
		})
	}
}

// BenchmarkAgentSlot measures one warm agent slot at road-scenario sizes:
// load the counts, compute Δ_i, and build the update Request.
func BenchmarkAgentSlot(b *testing.B) {
	a, si := roadLikeAgent(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.handleSlot(si); err != nil {
			b.Fatal(err)
		}
	}
}
