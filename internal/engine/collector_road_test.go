package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestCollectorMatchesOracleRoad runs the collector differential on a
// small Shanghai road scenario: routes that share long task runs across
// users with the same trip, some over 64 tasks.
func TestCollectorMatchesOracleRoad(t *testing.T) {
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
	choices := core.RandomProfile(sc.Instance, s.Child()).Choices()
	for f, factory := range engine.CollectingFactories {
		for _, external := range []bool{false, true} {
			if slots, _ := engine.CollectorDifferential(t, sc.Instance, choices, factory, uint64(f), 400, external); slots < 2 {
				t.Fatalf("policy %d: degenerate run of %d slots", f, slots)
			}
		}
	}
}
