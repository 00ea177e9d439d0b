package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestQuickTheorem2 is the central property test of the repository: on
// random instances, random profiles, and random unilateral moves, the
// weighted-potential identity of Theorem 2 holds exactly:
//
//	P_i(s') − P_i(s) = α_i · (Φ(s') − Φ(s)).
func TestQuickTheorem2(t *testing.T) {
	f := func(seed uint64, userRaw, moveRaw uint8) bool {
		s := rng.New(seed)
		in := RandomInstance(DefaultRandomConfig(2+int(seed%9), 1+int(seed%17)), s.Child())
		p := RandomProfile(in, s.Child())
		i := UserID(int(userRaw) % len(in.Users))
		c := int(moveRaw) % len(in.Users[i].Routes)

		before := p.Profit(i)
		phiBefore := p.Potential()
		q := p.Clone()
		q.SetChoice(i, c)
		dP := q.Profit(i) - before
		dPhi := q.Potential() - phiBefore
		return math.Abs(dP-in.Users[i].Alpha*dPhi) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: incremental count maintenance agrees with recomputation from
// scratch after an arbitrary sequence of moves.
func TestQuickIncrementalCounts(t *testing.T) {
	f := func(seed uint64, moves []uint16) bool {
		s := rng.New(seed)
		in := RandomInstance(DefaultRandomConfig(2+int(seed%8), 1+int(seed%12)), s.Child())
		p := RandomProfile(in, s.Child())
		for _, m := range moves {
			i := UserID(int(m>>8) % len(in.Users))
			c := int(m&0xff) % len(in.Users[i].Routes)
			p.SetChoice(i, c)
		}
		fresh, err := NewProfile(in, p.Choices())
		if err != nil {
			return false
		}
		for k := range in.Tasks {
			if p.nk[k] != fresh.nk[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a best-response move never decreases the potential, and a
// strictly-better response strictly increases it (finite improvement
// property's engine).
func TestQuickBetterResponseRaisesPotential(t *testing.T) {
	f := func(seed uint64, userRaw uint8) bool {
		s := rng.New(seed)
		in := RandomInstance(DefaultRandomConfig(2+int(seed%8), 1+int(seed%12)), s.Child())
		p := RandomProfile(in, s.Child())
		i := UserID(int(userRaw) % len(in.Users))
		better := p.BetterResponses(i)
		if len(better) == 0 {
			return true
		}
		phi := p.Potential()
		for _, c := range better {
			q := p.Clone()
			q.SetChoice(i, c)
			if q.Potential() <= phi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every element of the best response set achieves the maximum
// ProfitIf over all routes, and strictly exceeds the current profit.
func TestQuickBestResponseIsArgmax(t *testing.T) {
	f := func(seed uint64, userRaw uint8) bool {
		s := rng.New(seed)
		in := RandomInstance(DefaultRandomConfig(2+int(seed%8), 1+int(seed%12)), s.Child())
		p := RandomProfile(in, s.Child())
		i := UserID(int(userRaw) % len(in.Users))
		max := math.Inf(-1)
		for c := range in.Users[i].Routes {
			if v := p.ProfitIf(i, c); v > max {
				max = v
			}
		}
		cur := p.Profit(i)
		best := p.BestResponseSet(i)
		if len(best) == 0 {
			// Then the current choice is (weakly) optimal within Eps.
			return cur >= max-10*Eps
		}
		for _, c := range best {
			v := p.ProfitIf(i, c)
			if v <= cur+Eps/2 || v < max-10*Eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AppendMoveTasks returns a duplicate-free union of the two routes'
// task sets.
func TestQuickMoveTasksUnion(t *testing.T) {
	f := func(seed uint64, userRaw, moveRaw uint8) bool {
		s := rng.New(seed)
		in := RandomInstance(DefaultRandomConfig(2+int(seed%8), 1+int(seed%12)), s.Child())
		p := RandomProfile(in, s.Child())
		i := UserID(int(userRaw) % len(in.Users))
		c := int(moveRaw) % len(in.Users[i].Routes)
		got := p.AppendMoveTasks(nil, i, c)
		want := map[int]bool{}
		for _, k := range in.Users[i].Routes[p.Choice(i)].Tasks {
			want[int(k)] = true
		}
		for _, k := range in.Users[i].Routes[c].Tasks {
			want[int(k)] = true
		}
		if len(got) != len(want) {
			return false
		}
		seen := map[int]bool{}
		for _, k := range got {
			if seen[int(k)] || !want[int(k)] {
				return false
			}
			seen[int(k)] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ProfitIf on every candidate equals the profit the user really
// gets after the move is applied, repeatedly, with probes interleaved.
func TestProfitIfMatchesAppliedMove(t *testing.T) {
	s := rng.New(77)
	in := RandomInstance(DefaultRandomConfig(4, 8), s.Child())
	p := RandomProfile(in, s.Child())
	for trial := 0; trial < 10; trial++ {
		for i := range in.Users {
			for c := range in.Users[i].Routes {
				q := p.Clone()
				q.SetChoice(UserID(i), c)
				want := q.Profit(UserID(i))
				if got := p.ProfitIf(UserID(i), c); math.Abs(got-want) > 1e-9 {
					t.Fatalf("ProfitIf(%d,%d) = %v, applied move gives %v", i, c, got, want)
				}
			}
		}
	}
}
