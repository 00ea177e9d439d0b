package roadnet

import (
	"testing"

	"repro/internal/rng"
)

// FuzzShortestPathEquivalence drives the goal-directed engine and the frozen
// reference Dijkstra with fuzzer-chosen graph shapes, endpoints, and query
// modes, and requires bit-identical answers: same error/no-error outcome,
// same edge sequence, exactly equal Length and Time. Graph topology is
// derived deterministically from (seed, rows, cols), so every crash input
// replays exactly.
func FuzzShortestPathEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(4), uint(4), uint(0), uint(3), false, uint8(0))
	f.Add(uint64(7), uint(9), uint(9), uint(80), uint(2), true, uint8(3))
	f.Add(uint64(42), uint(3), uint(12), uint(5), uint(35), false, uint8(7))
	f.Add(uint64(99), uint(12), uint(12), uint(143), uint(0), true, uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, srcRaw, dstRaw uint, byTime bool, banBits uint8) {
		rows = 2 + rows%14
		cols = 2 + cols%14
		s := rng.New(seed)
		g := randomUnitGrid(t, int(rows), int(cols), s.Child())
		n, m := g.NumNodes(), g.NumEdges()
		src := NodeID(int(srcRaw) % n)
		dst := NodeID(int(dstRaw) % n)
		w := ByLength
		if byTime {
			w = ByTime
		}
		// banBits seeds a deterministic banned-edge set (possibly empty).
		var bannedEdges map[EdgeID]bool
		if banBits != 0 {
			bannedEdges = map[EdgeID]bool{}
			bs := rng.New(uint64(banBits))
			for i := 0; i < int(banBits%8); i++ {
				bannedEdges[EdgeID(bs.Intn(m))] = true
			}
		}

		old := altMinNodes
		altMinNodes = 1 // force goal-directed search even on tiny grids
		defer func() { altMinNodes = old }()

		want, err1 := referenceShortestPathBanned(g, src, dst, w, bannedEdges, nil)
		got, err2 := g.shortestPathBanned(src, dst, w, bannedEdges, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch %d->%d: ref=%v engine=%v", src, dst, err1, err2)
		}
		if err1 != nil {
			return
		}
		if !PathEqual(got, want) || got.Length != want.Length || got.Time != want.Time {
			t.Fatalf("paths diverge %d->%d w=%d ban=%v:\n got  %v (%v,%v)\n want %v (%v,%v)",
				src, dst, w, bannedEdges, got.Edges, got.Length, got.Time, want.Edges, want.Length, want.Time)
		}

		// Alternatives over the same graph must agree too (no bans: the
		// penalized loop has its own edge masking via penalties).
		wantAlt, errA := ReferenceAlternativeRoutes(g, src, dst, 3, 0.4)
		gotAlt, errB := g.AlternativeRoutes(src, dst, 3, 0.4)
		if (errA == nil) != (errB == nil) || len(wantAlt) != len(gotAlt) {
			t.Fatalf("alternatives mismatch %d->%d: ref=%d/%v engine=%d/%v", src, dst, len(wantAlt), errA, len(gotAlt), errB)
		}
		for i := range gotAlt {
			if !PathEqual(gotAlt[i], wantAlt[i]) {
				t.Fatalf("alternative %d diverges %d->%d:\n got  %v\n want %v", i, src, dst, gotAlt[i].Edges, wantAlt[i].Edges)
			}
		}
	})
}
