package engine

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// insertionSelectPUU is the frozen original Algorithm 3 selection: an
// insertion sort by non-ascending δ and a map of taken tasks. It survives
// only as the oracle SelectPUU must match exactly.
func insertionSelectPUU(reqs []Request) []Request {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	delta := func(r Request) float64 {
		if len(r.B) == 0 {
			return math.Inf(1)
		}
		return r.Tau / float64(len(r.B))
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && delta(reqs[idx[j]]) > delta(reqs[idx[j-1]]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	taken := map[int]bool{}
	var out []Request
	for _, ii := range idx {
		r := reqs[ii]
		conflict := false
		for _, k := range r.B {
			if taken[k] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, k := range r.B {
			taken[k] = true
		}
		out = append(out, r)
	}
	return out
}

// stableSelectPUU is the frozen stable-sort selection: a stable sort of
// request indices by non-ascending δ over precomputed δ values, then the
// same admission pass. SelectPUU's (δ, index) keys must order exactly as
// it does.
func stableSelectPUU(reqs []Request) []Request {
	delta := make([]float64, len(reqs))
	maxTask := -1
	for i, r := range reqs {
		delta[i] = math.Inf(1)
		if len(r.B) > 0 {
			delta[i] = r.Tau / float64(len(r.B))
		}
		for _, k := range r.B {
			maxTask = max(maxTask, k)
		}
	}
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(delta[b], delta[a]) })
	taken := make([]bool, maxTask+1)
	var out []Request
admit:
	for _, i := range idx {
		r := reqs[i]
		for _, k := range r.B {
			if taken[k] {
				continue admit
			}
		}
		for _, k := range r.B {
			taken[k] = true
		}
		out = append(out, r)
	}
	return out
}

// TestSelectPUUMatchesInsertionSort checks the (δ, index)-keyed selection
// against the frozen stable-sort and insertion-sort versions on random
// request sets built to stress the order: τ drawn from a few values so δ
// ties and equal τ are common, empty B sets (δ = +Inf, several of them
// tied), and B sets repeating a task ID. Set sizes run past the sort's
// insertion-sort cutoff into the hundreds. The admitted requests and
// their order must be identical.
func TestSelectPUUMatchesInsertionSort(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 2000; trial++ {
		n, tasks := s.IntRange(0, 40), s.IntRange(1, 30)
		if trial%10 == 0 { // large sets over many tasks: long admitted runs
			n = s.IntRange(40, 600)
			tasks = s.IntRange(n, 4*n)
		}
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{User: core.UserID(i), Route: s.Intn(5), Tau: float64(s.IntRange(1, 4))}
			if s.Bool(0.1) {
				continue // empty B: δ = +Inf
			}
			for nb := s.IntRange(1, 6); len(reqs[i].B) < nb; {
				reqs[i].B = append(reqs[i].B, s.Intn(tasks))
			}
			if s.Bool(0.2) {
				reqs[i].B = append(reqs[i].B, reqs[i].B[0]) // duplicate task ID
			}
		}
		got, want := SelectPUU(reqs), insertionSelectPUU(reqs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SelectPUU admitted %v, insertion sort %v", trial, users(got), users(want))
		}
		if stable := stableSelectPUU(reqs); !reflect.DeepEqual(got, stable) {
			t.Fatalf("trial %d: SelectPUU admitted %v, stable sort %v", trial, users(got), users(stable))
		}
	}
}

func users(reqs []Request) []core.UserID {
	out := make([]core.UserID, len(reqs))
	for i, r := range reqs {
		out[i] = r.User
	}
	return out
}

// FuzzSelectPUU checks SelectPUU against the frozen stable-sort and
// insertion-sort selections on request sets decoded from the input. Each
// request is a header byte — τ from a table holding equal values, 0,
// negatives, ±Inf and NaN in its low three bits, |B| ≤ 7 in the next three
// (0 gives δ = +Inf), the route in the top two — then |B| bytes whose low
// four bits are task IDs, so B sets share tasks and may repeat one. The
// insertion sort's > comparisons leave a NaN δ where it stands rather than
// last, so it is compared only when no δ is NaN.
//
// The same input then drives both of admitPUU's paths, the walk and the
// sort, with inexact keys: a request with an odd route gets its δ plus a
// widening read from the high four bits of its first task byte (+Inf at
// 15) as its bound, and refine returns the true δ, at most once per
// inexact key. The winners of both must equal the stable sort's too.
func FuzzSelectPUU(f *testing.F) {
	f.Add([]byte{0x08, 1, 0x09, 2, 0x10, 1, 2, 0x00})
	f.Add([]byte{0x0e, 3, 0x08, 3, 0x00, 0x0e, 4, 0x16, 5, 6, 0x07})
	f.Add([]byte{0x38, 0, 1, 2, 3, 4, 5, 6, 0x08, 7, 0x08, 8, 0x08, 9, 0x09, 10, 0x0b, 11, 0x08, 0})
	f.Add([]byte{0x48, 0x31, 0x49, 0xf2, 0x50, 0x01, 0x02, 0xc8, 0x11, 0x4e, 0x03, 0x46, 0xf4, 0x40})
	f.Add([]byte("A720")) // an inexact +Inf bound ties an exact +Inf of higher index
	taus := [8]float64{1, 1, 2, 0.5, 0, -1, math.NaN(), math.Inf(1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []Request
		var widen []float64 // the inexact key's widening, or -1 for an exact key
		nan := false
		for len(data) > 0 {
			h := data[0]
			nb := min(int(h>>3&7), len(data)-1)
			r := Request{User: core.UserID(len(reqs)), Route: int(h >> 6), Tau: taus[h&7]}
			for _, k := range data[1 : 1+nb] {
				r.B = append(r.B, int(k&15))
			}
			wd := -1.0
			if r.Route%2 == 1 {
				wd = 0
				if nb > 0 {
					wd = float64(data[1]>>4) / 4
					if data[1]>>4 == 15 {
						wd = math.Inf(1)
					}
				}
			}
			data = data[1+nb:]
			nan = nan || nb > 0 && math.IsNaN(r.Tau)
			reqs = append(reqs, r)
			widen = append(widen, wd)
		}
		want := stableSelectPUU(reqs)
		got := SelectPUU(reqs)
		if msg := requestsDiff(got, want); msg != "" {
			t.Fatalf("against the stable sort: %s", msg)
		}
		if !nan {
			if msg := requestsDiff(got, insertionSelectPUU(reqs)); msg != "" {
				t.Fatalf("against the insertion sort: %s", msg)
			}
		}
		for _, path := range []struct {
			name string
			run  func(*puuWalk, []puuKey) []Request
		}{{"walk", (*puuWalk).walk}, {"sort", (*puuWalk).sortAdmit}} {
			keys := make([]puuKey, len(reqs))
			for j := range reqs {
				d := reqs[j].delta()
				keys[j] = puuKey{d, int32(j), true}
				if widen[j] >= 0 {
					keys[j] = puuKey{d + widen[j], int32(j), false}
				}
			}
			refined := make([]bool, len(reqs))
			w := puuWalk{reqs: reqs, refine: func(j int) float64 {
				if widen[j] < 0 || refined[j] {
					t.Fatalf("%s: request %d refined twice or refined while exact", path.name, j)
				}
				refined[j] = true
				return reqs[j].delta()
			}}
			if msg := requestsDiff(path.run(&w, keys), want); msg != "" {
				t.Fatalf("bounded %s against the stable sort: %s", path.name, msg)
			}
		}
	})
}

// TestAdmitPUUPanicsOnLowBound checks admitPUU's run-time guard on both
// paths: a refined δ above its key's bound means the walk may have passed
// the request over, so it must panic rather than admit.
func TestAdmitPUUPanicsOnLowBound(t *testing.T) {
	reqs := []Request{{User: 0, Tau: 1, B: []int{0}}, {User: 1, Tau: 2, B: []int{1}}}
	for _, path := range []struct {
		name string
		run  func(*puuWalk, []puuKey) []Request
	}{{"walk", (*puuWalk).walk}, {"sort", (*puuWalk).sortAdmit}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: δ = 2 refined above its bound 1.5 without a panic", path.name)
				}
			}()
			w := puuWalk{reqs: reqs, refine: func(j int) float64 { return reqs[j].delta() }}
			path.run(&w, []puuKey{{1, 0, true}, {1.5, 1, false}})
		}()
	}
}
