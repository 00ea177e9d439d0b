package distributed_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/trace"
)

// smallRoadInstance builds the small Shanghai road scenario the engine and
// agent differential tests use: routes that share long task runs across
// users with the same trip.
func smallRoadInstance(t *testing.T) *core.Instance {
	t.Helper()
	spec := trace.Shanghai()
	spec.Trips = 40
	w, err := experiments.NewWorld(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: 60, Tasks: 500}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return sc.Instance
}

// transcriptChoices replays a global transcript and returns the choices
// each decision slot opened on: opening[s-1] for slot s, one entry past
// the last slot that granted, for the slot that found no request.
func transcriptChoices(t *testing.T, in *core.Instance, transcript string) [][]int {
	t.Helper()
	choices := make([]int, in.NumUsers())
	opening := [][]int{nil}
	for _, line := range strings.Split(strings.TrimSpace(transcript), "\n") {
		var s, u, r int
		if _, err := fmt.Sscanf(line, "init user %d route %d", &u, &r); err == nil {
			choices[u] = r
			continue
		}
		if _, err := fmt.Sscanf(line, "slot %d user %d route %d", &s, &u, &r); err != nil {
			t.Fatalf("transcript line %q: %v", line, err)
		}
		for len(opening) <= s {
			opening = append(opening, nil)
		}
		if opening[s-1] == nil {
			opening[s-1] = slices.Clone(choices)
		}
		choices[u] = r
	}
	opening[len(opening)-1] = choices
	return opening
}

// TestPlatformSilenceIsSound checks certified silence where it matters:
// every user the platform leaves without a SlotInfo in a slot must have an
// empty exact Δ_i on a core.Profile of the choices that slot opened on
// (replayed from the run's transcript), so it would have requested
// nothing. It runs PUU, SUU and DET at K = 1 and 2 on random instances and
// the small Shanghai road scenario, and requires that silence happens at
// all and that the contact counts bound the requests.
func TestPlatformSilenceIsSound(t *testing.T) {
	var insts []*core.Instance
	for seed := uint64(0); seed < 4; seed++ {
		insts = append(insts, core.RandomInstance(core.DefaultRandomConfig(30, 20), rng.New(40+seed)))
	}
	insts = append(insts, smallRoadInstance(t))
	silenced := 0
	for n, in := range insts {
		for _, pol := range []distributed.SelectionPolicy{distributed.PUU, distributed.SUU, distributed.Deterministic} {
			for _, shards := range []int{1, 2} {
				name := fmt.Sprintf("instance %d %s K=%d", n, pol, shards)
				var mu sync.Mutex
				silent := map[int][]int{}
				cfg := distributed.WithSilenceHook(distributed.PlatformConfig{Policy: pol, Seed: 3}, func(slot int, users []int) {
					mu.Lock()
					silent[slot] = append(silent[slot], users...)
					mu.Unlock()
				})
				stats, err := distributed.RunInProcess(in, distributed.InProcessOptions{
					Shards: shards, Platform: cfg, AgentSeedBase: 50, Deterministic: pol == distributed.Deterministic,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				opening := transcriptChoices(t, in, stats.Transcript)
				if len(opening) != stats.Slots+1 || len(silent) != stats.Slots+1 {
					t.Fatalf("%s: %d slots, %d replayed, %d observed", name, stats.Slots, len(opening), len(silent))
				}
				for s, choices := range opening {
					p, err := core.NewProfile(in, choices)
					if err != nil {
						t.Fatal(err)
					}
					for _, u := range silent[s+1] {
						if d := p.BestResponseSet(core.UserID(u)); len(d) > 0 {
							t.Fatalf("%s slot %d: user %d left silent with Δ_i = %v", name, s+1, u, d)
						}
					}
					silenced += len(silent[s+1])
				}
				for s, c := range stats.ContactedPerSlot {
					if c+len(silent[s+1]) != in.NumUsers() || stats.RequestsPerSlot[s] > c {
						t.Fatalf("%s slot %d: %d contacted, %d silent, %d requests of %d users", name, s+1,
							c, len(silent[s+1]), stats.RequestsPerSlot[s], in.NumUsers())
					}
				}
			}
		}
	}
	if silenced == 0 {
		t.Fatal("no user was ever left silent: the test checked nothing")
	}
	t.Logf("%d silent user-slots checked", silenced)
}

// TestWatchIndexMatchesDefinition checks the platform's watch lists, which
// decide whose drift a count change raises, against the definition: a
// served user watches exactly the tasks on some, but not all, of its
// routes. It reads them through the platform's drift tracker: moving one
// task's count must raise the drift of exactly its watchers, each by the
// same amount. A watch set one task too narrow would leave drift unpushed;
// one task too wide would contact users for nothing.
func TestWatchIndexMatchesDefinition(t *testing.T) {
	insts := []*core.Instance{smallRoadInstance(t)}
	for seed := uint64(0); seed < 20; seed++ {
		insts = append(insts, core.RandomInstance(core.DefaultRandomConfig(25, 12), rng.New(seed)))
	}
	for n, in := range insts {
		users := []int{}
		for u := range in.Users {
			if u%3 != 1 { // a shard's subset, not every user
				users = append(users, u)
			}
		}
		tr, err := distributed.PlatformDrift(in, users)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]task.ID, len(users))
		for k := range in.Tasks {
			clear(tr.Drift)
			tr.Moved(task.ID(k), 0, 1)
			tr.Push(0)
			tr.Clear()
			var q uint64
			for li, d := range tr.Drift {
				if d == 0 {
					continue
				}
				if q != 0 && d != q {
					t.Fatalf("instance %d task %d: user %d drifts %d, another %d", n, k, users[li], d, q)
				}
				q = d
				got[li] = append(got[li], task.ID(k))
			}
		}
		for li, u := range users {
			var want []task.ID
			for k := range in.Tasks {
				on := 0
				for _, r := range in.Users[u].Routes {
					if slices.Contains(r.Tasks, task.ID(k)) {
						on++
					}
				}
				if on > 0 && on < len(in.Users[u].Routes) {
					want = append(want, task.ID(k))
				}
			}
			if !slices.Equal(got[li], want) {
				t.Fatalf("instance %d user %d: watches %v, want %v", n, u, got[li], want)
			}
		}
	}
}
