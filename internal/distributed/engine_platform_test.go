package distributed_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// slotRecord is one decision slot's outcome: the granted users, ascending,
// and every user's route after the slot.
type slotRecord struct {
	granted []int
	choices []int
}

// enginePUU replays a PUU run with Deterministic agents on the engine's
// side. From every user on route 0, each slot every user with a nonempty
// Δ_i requests Δ_i[0], with τ from Profile.Tau and B from
// AppendMoveTasks; engine.SelectPUU picks the winners, and they move.
func enginePUU(t *testing.T, in *core.Instance) []slotRecord {
	t.Helper()
	p, err := core.NewProfile(in, make([]int, in.NumUsers()))
	if err != nil {
		t.Fatal(err)
	}
	var out []slotRecord
	for len(out) < engine.DefaultMaxSlots {
		var reqs []engine.Request
		for i := range in.Users {
			u := core.UserID(i)
			if delta := p.BestResponseSet(u); len(delta) > 0 {
				c := delta[0]
				reqs = append(reqs, engine.Request{User: u, Route: c, Tau: p.Tau(u, c), B: p.AppendMoveTasks(nil, u, c)})
			}
		}
		if len(reqs) == 0 {
			return out
		}
		var rec slotRecord
		for _, r := range engine.SelectPUU(reqs) {
			p.SetChoice(r.User, r.Route)
			rec.granted = append(rec.granted, int(r.User))
		}
		slices.Sort(rec.granted)
		rec.choices = p.Choices()
		out = append(out, rec)
	}
	t.Fatalf("engine replay did not converge in %d slots", len(out))
	return nil
}

// transcriptSlots reads a run's per-slot outcomes from its selection
// transcript: its init lines, then one "slot s user u route r" line per
// grant.
func transcriptSlots(t *testing.T, in *core.Instance, transcript string) []slotRecord {
	t.Helper()
	choices := make([]int, in.NumUsers())
	var out []slotRecord
	for _, line := range strings.Split(strings.TrimSpace(transcript), "\n") {
		var s, u, r int
		if _, err := fmt.Sscanf(line, "init user %d route %d", &u, &r); err == nil {
			choices[u] = r
			continue
		}
		if _, err := fmt.Sscanf(line, "slot %d user %d route %d", &s, &u, &r); err != nil {
			t.Fatalf("transcript line %q: %v", line, err)
		}
		if s > len(out) {
			out = append(out, slotRecord{})
		}
		choices[u] = r
		rec := &out[len(out)-1]
		rec.granted = append(rec.granted, u)
		rec.choices = slices.Clone(choices)
	}
	for _, rec := range out {
		slices.Sort(rec.granted)
	}
	return out
}

// TestEngineMatchesPlatform runs PUU with Deterministic agents on the
// shipping platform (RunInProcess at K = 1 and 2) and on the engine's
// profile, on random instances and a Shanghai road scenario, and requires
// the same granted users and the same choices in every slot. DET is
// covered by TestDeterministicMatchesSequentialReference.
func TestEngineMatchesPlatform(t *testing.T) {
	var insts []*core.Instance
	for seed := uint64(0); seed < 6; seed++ {
		insts = append(insts, core.RandomInstance(core.DefaultRandomConfig(40, 25), rng.New(seed)))
	}
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
	insts = append(insts, sc.Instance)

	for n, in := range insts {
		want := enginePUU(t, in)
		if len(want) == 0 {
			t.Fatalf("instance %d: route 0 is already an equilibrium", n)
		}
		t.Logf("instance %d: %d users, %d slots, %d grants in slot 1", n, in.NumUsers(), len(want), len(want[0].granted))
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("instance %d K=%d", n, shards)
			var observed []slotRecord
			cfg := distributed.PlatformConfig{Policy: distributed.PUU, Seed: 1}
			if shards == 1 {
				cfg.Observer = func(o distributed.Observation) {
					if len(o.GrantedUsers) > 0 {
						granted := slices.Clone(o.GrantedUsers)
						slices.Sort(granted)
						observed = append(observed, slotRecord{granted, o.Choices})
					}
				}
			}
			stats, err := distributed.RunInProcess(in, distributed.InProcessOptions{
				Shards: shards, Platform: cfg, Deterministic: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs := map[string][]slotRecord{"transcript": transcriptSlots(t, in, stats.Transcript)}
			if shards == 1 {
				runs["observer"] = observed
			}
			for source, got := range runs {
				if len(got) != len(want) {
					t.Fatalf("%s: platform %s has %d slots, engine %d", name, source, len(got), len(want))
				}
				for s := range want {
					if !slices.Equal(got[s].granted, want[s].granted) || !slices.Equal(got[s].choices, want[s].choices) {
						t.Fatalf("%s slot %d: platform %s granted %v, engine %v (choices equal: %v)", name, s+1, source,
							got[s].granted, want[s].granted, slices.Equal(got[s].choices, want[s].choices))
					}
				}
			}
		}
	}
}
