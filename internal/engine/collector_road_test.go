package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// smallRoad builds a small Shanghai road scenario — routes that share long
// task runs across users with the same trip, some over 64 tasks — and a
// random initial profile on it.
func smallRoad(t *testing.T) (*core.Instance, []int) {
	t.Helper()
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
	return sc.Instance, core.RandomProfile(sc.Instance, s.Child()).Choices()
}

// TestCollectorMatchesOracleRoad runs the collector differential on a
// small Shanghai road scenario.
func TestCollectorMatchesOracleRoad(t *testing.T) {
	in, choices := smallRoad(t)
	for f, factory := range engine.CollectingFactories {
		for _, external := range []bool{false, true} {
			if slots, _ := engine.CollectorDifferential(t, in, choices, factory, uint64(f), 400, external); slots < 2 {
				t.Fatalf("policy %d: degenerate run of %d slots", f, slots)
			}
		}
	}
}

// TestCollectorLazyPUUMatchesExact is the differential proof of the bounded
// PUU path: on every differential instance and the small road scenario,
// with and without outside moves, each slot's winners, the stream state
// after them and the final choices equal those of the exact path. The
// road runs must certify requesters, or the bounded path went untested.
func TestCollectorLazyPUUMatchesExact(t *testing.T) {
	for n, in := range engine.DifferentialInstances() {
		choices := core.RandomProfile(in, rng.New(uint64(n))).Choices()
		for _, external := range []bool{false, true} {
			engine.BoundedDifferential(t, in, choices, uint64(n), 400, external)
		}
	}
	in, choices := smallRoad(t)
	for seed, external := range []bool{false, true} {
		slots, certified := engine.BoundedDifferential(t, in, choices, uint64(seed), 400, external)
		if slots < 2 || certified == 0 {
			t.Fatalf("road run (external %v): %d slots, %d certified requester-slots", external, slots, certified)
		}
	}
}

// TestRunIdenticalAcrossCollectModesRoad is TestRunIdenticalAcrossCollectModes
// on the small road scenario: every collect mode and shard count gives the
// same PUU run, slot for slot.
func TestRunIdenticalAcrossCollectModesRoad(t *testing.T) {
	in, choices := smallRoad(t)
	engine.CollectModesIdentical(t, in, choices)
}
