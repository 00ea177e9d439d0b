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
