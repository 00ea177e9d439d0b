package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// probeReplay applies random moves to p and, every `every` moves, checks
// all probes against the marking oracles bit for bit.
func probeReplay(t *testing.T, p *Profile, s *rng.Stream, moves, every int) {
	t.Helper()
	if msg := probeMismatch(p); msg != "" {
		t.Fatalf("initial profile: %s", msg)
	}
	in := p.Instance()
	for m := 1; m <= moves; m++ {
		i := UserID(s.Intn(len(in.Users)))
		p.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
		if m%every == 0 {
			if msg := probeMismatch(p); msg != "" {
				t.Fatalf("after %d moves: %s", m, msg)
			}
		}
	}
}

// TestMaskedProbesMatchMarkingOracle is the differential test of the
// symmetric-difference probe path: on random instances, on routes long
// enough to need several mask words, and on routes repeating a task ID,
// every probe equals the frozen marking implementation in every bit.
func TestMaskedProbesMatchMarkingOracle(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for _, sh := range []struct {
			users, tasks int
			seed         uint64
		}{{8, 10, 1}, {30, 12, 2}, {60, 40, 3}} {
			s := rng.New(sh.seed)
			in := RandomInstance(DefaultRandomConfig(sh.users, sh.tasks), s.Child())
			probeReplay(t, RandomProfile(in, s.Child()), s, 400, 20)
		}
	})
	t.Run("multi-word", func(t *testing.T) {
		s := rng.New(4)
		cfg := DefaultRandomConfig(12, 300)
		cfg.TasksPerRouteMax = 260 // routes of up to five 64-bit words
		in := RandomInstance(cfg, s.Child())
		long := 0
		for _, u := range in.Users {
			for _, r := range u.Routes {
				if len(r.Tasks) > 128 {
					long++
				}
			}
		}
		if long == 0 {
			t.Fatal("no route spans more than two mask words")
		}
		probeReplay(t, RandomProfile(in, s.Child()), s, 200, 10)
	})
	t.Run("duplicate-task-ids", func(t *testing.T) {
		s := rng.New(5)
		cfg := DefaultRandomConfig(10, 8)
		cfg.TasksPerRouteMax = 6
		in := RandomInstance(cfg, s.Child())
		dups := 0
		for i := range in.Users {
			for r := range in.Users[i].Routes {
				rt := &in.Users[i].Routes[r]
				if len(rt.Tasks) > 0 && s.Bool(0.6) {
					// Repeat an existing task and append one more task
					// twice, so both shared and one-sided duplicates occur.
					extra := task.ID(s.Intn(len(in.Tasks)))
					rt.Tasks = append(rt.Tasks, rt.Tasks[s.Intn(len(rt.Tasks))], extra, extra)
					dups++
				}
			}
		}
		if dups == 0 {
			t.Fatal("no route got duplicate task IDs")
		}
		probeReplay(t, RandomProfile(in, s.Child()), s, 300, 10)
	})
}

// TestMaskedProbesAcrossRebase drives a profile over the rebaseEvery
// boundary, where rebase recomputes the share caches from scratch, and
// checks the probes bit for bit just before and just after it.
func TestMaskedProbesAcrossRebase(t *testing.T) {
	s := rng.New(6)
	in := RandomInstance(DefaultRandomConfig(20, 15), s.Child())
	p := RandomProfile(in, s.Child())
	for p.moves < rebaseEvery-1 {
		i := UserID(s.Intn(len(in.Users)))
		if c := s.Intn(len(in.Users[i].Routes)); c != p.Choice(i) {
			p.SetChoice(i, c)
		}
	}
	if msg := probeMismatch(p); msg != "" {
		t.Fatalf("one move before rebase: %s", msg)
	}
	for p.moves != 0 {
		i := UserID(s.Intn(len(in.Users)))
		if c := s.Intn(len(in.Users[i].Routes)); c != p.Choice(i) {
			p.SetChoice(i, c)
		}
	}
	if msg := probeMismatch(p); msg != "" {
		t.Fatalf("right after rebase: %s", msg)
	}
	probeReplay(t, p, s, 100, 10)
}

// TestConcurrentEvaluatorsShareMasks probes a fresh profile from several
// goroutines at once, each through its own Evaluator (run it under -race):
// the first one to start builds the overlap masks, the rest wait for that
// one build, and all answers are bit-identical to the marking oracle. A Clone shares the masks but copies the share
// caches, so moves on the original never leak into its probes.
func TestConcurrentEvaluatorsShareMasks(t *testing.T) {
	s := rng.New(7)
	in := RandomInstance(DefaultRandomConfig(40, 30), s.Child())
	p := RandomProfile(in, s.Child())
	if p.memo.overlap != nil {
		t.Fatal("masks built before the first probe")
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := p.NewEvaluator()
			for i := w; i < len(in.Users); i += workers {
				dp := make([]float64, len(in.Users[i].Routes))
				ev.ProfitDeltas(UserID(i), dp)
				for c, got := range dp {
					if want := markingProfitDeltaIf(p, UserID(i), c); math.Float64bits(got) != math.Float64bits(want) {
						errs[w] = "concurrent probe disagrees with the marking oracle"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
	masks := p.memo.overlap
	if masks == nil {
		t.Fatal("probes did not build the masks")
	}

	q := p.Clone()
	if q.memo.overlapMasks(in) != masks {
		t.Fatal("clone does not share the original's overlap masks")
	}
	snapshot := q.Clone()
	for m := 0; m < 100; m++ {
		i := UserID(s.Intn(len(in.Users)))
		p.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
	}
	if msg := probeMismatch(q); msg != "" {
		t.Fatalf("clone after moves on the original: %s", msg)
	}
	for i, u := range in.Users {
		for c := range u.Routes {
			if got, want := q.ProfitDeltaIf(UserID(i), c), snapshot.ProfitDeltaIf(UserID(i), c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("moves on the original changed the clone's probe (%d,%d): %v != %v", i, c, got, want)
			}
		}
	}
}
