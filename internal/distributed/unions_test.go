package distributed_test

import (
	"testing"

	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestTaskUnionsMatchAgentTaskIDs checks that the platform lists each
// user's SlotInfo tasks in the order the agent numbers them: ascending, the
// same set. A union in first-seen order is unsorted whenever a later route
// covers a task below one an earlier route covered.
func TestTaskUnionsMatchAgentTaskIDs(t *testing.T) {
	spec := trace.Shanghai()
	spec.Trips = 40
	w, err := experiments.NewWorld(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: 200, Tasks: 500}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	in := sc.Instance
	users := make([]int, in.NumUsers())
	for u := range users {
		users[u] = u
	}
	unions := distributed.TaskUnions(in, users)
	for u, union := range unions {
		ids, err := distributed.AgentTaskIDs(in, u)
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		if len(ids) != len(union) {
			t.Fatalf("user %d: platform lists %d tasks, agent %d", u, len(union), len(ids))
		}
		for i, k := range ids {
			if int(union[i]) != k {
				t.Fatalf("user %d: platform task %d is %d, agent's is %d", u, i, union[i], k)
			}
		}
	}
}
