package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestMaskedProbesMatchMarkingOracleRoad runs the bit-for-bit probe
// differential on a road scenario: routes from the Shanghai trace world,
// sharing task-slice templates across users with the same trip, some long
// enough to need two mask words.
func TestMaskedProbesMatchMarkingOracleRoad(t *testing.T) {
	spec := trace.Shanghai()
	spec.Trips = 40
	w, err := experiments.NewWorld(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(8)
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: 60, Tasks: 500}, s.Child())
	if err != nil {
		t.Fatal(err)
	}
	in := sc.Instance
	maxLen, multi := 0, 0
	for _, u := range in.Users {
		if len(u.Routes) > 1 {
			multi++
		}
		for _, r := range u.Routes {
			maxLen = max(maxLen, len(r.Tasks))
		}
	}
	if multi == 0 || maxLen <= 64 {
		t.Fatalf("scenario too small to exercise the masks: %d multi-route users, longest route %d tasks", multi, maxLen)
	}
	p := core.RandomProfile(in, s.Child())
	for m := 0; m <= 200; m++ {
		if m%20 == 0 {
			if msg := core.ProbeMismatch(p); msg != "" {
				t.Fatalf("after %d moves: %s", m, msg)
			}
		}
		i := core.UserID(s.Intn(in.NumUsers()))
		p.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
	}
}
