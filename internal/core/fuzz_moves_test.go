package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// FuzzProfileMoves feeds arbitrary (user, route) move streams through the
// cached Profile and the Naive oracle simultaneously. Each pair of input
// bytes is decoded into one step — a unilateral probe (ProfitDeltaIf /
// ProfitIf) or an applied move (SetChoice) — and after the stream is
// exhausted every maintained aggregate is compared: counts exactly,
// Potential / TotalProfit / NashGap within Eps. Every probe must also equal
// the frozen marking implementation bit for bit. The instance shape is
// itself derived from the fuzzed seed, so the mutator explores small
// degenerate games as well as overlap-heavy ones.
func FuzzProfileMoves(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(7), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint64(42), []byte{0xff, 0x00, 0x13, 0x37, 0x80, 0x80, 0x01, 0x02})
	f.Add(uint64(2021), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, moves []byte) {
		s := rng.New(seed)
		users := 2 + int(seed%11)
		tasks := 1 + int((seed>>8)%17)
		in := RandomInstance(DefaultRandomConfig(users, tasks), s.Child())
		p := RandomProfile(in, s.Child())
		o, err := NewNaive(in, p.Choices())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j+1 < len(moves); j += 2 {
			i := UserID(int(moves[j]) % len(in.Users))
			c := int(moves[j+1]) % len(in.Users[i].Routes)
			if moves[j]&0x80 != 0 {
				// High bit: probe only.
				wantD := o.ProfitIf(i, c) - o.Profit(i)
				got := p.ProfitDeltaIf(i, c)
				if math.Abs(got-wantD) > Eps {
					t.Fatalf("ProfitDeltaIf(%d,%d) cached %v, oracle %v", i, c, got, wantD)
				}
				if mark := markingProfitDeltaIf(p, i, c); math.Float64bits(got) != math.Float64bits(mark) {
					t.Fatalf("ProfitDeltaIf(%d,%d) masked %v, marking %v", i, c, got, mark)
				}
				if got, want := p.ProfitIf(i, c), o.ProfitIf(i, c); math.Abs(got-want) > Eps {
					t.Fatalf("ProfitIf(%d,%d) cached %v, oracle %v", i, c, got, want)
				}
			} else {
				p.SetChoice(i, c)
				o.SetChoice(i, c)
			}
		}
		counts := o.Counts()
		for k := range counts {
			if p.Count(task.ID(k)) != counts[k] {
				t.Fatalf("n_%d cached %d, oracle %d", k, p.Count(task.ID(k)), counts[k])
			}
		}
		if got, want := p.Potential(), o.Potential(); math.Abs(got-want) > Eps {
			t.Fatalf("Potential cached %v, oracle %v", got, want)
		}
		if got, want := p.TotalProfit(), o.TotalProfit(); math.Abs(got-want) > Eps {
			t.Fatalf("TotalProfit cached %v, oracle %v", got, want)
		}
		if got, want := p.NashGap(), o.NashGap(); math.Abs(got-want) > Eps {
			t.Fatalf("NashGap cached %v, oracle %v", got, want)
		}
	})
}
