package engine

import (
	"math"
	"reflect"
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

// TestSelectPUUMatchesInsertionSort checks the stable-sort selection
// against the frozen insertion-sort version on random request sets built
// to stress the order: τ drawn from a few values so δ ties are common,
// empty B sets (δ = +Inf, several of them tied), and B sets repeating a
// task ID. The admitted requests and their order must be identical.
func TestSelectPUUMatchesInsertionSort(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 2000; trial++ {
		n := s.IntRange(0, 40)
		tasks := s.IntRange(1, 30)
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
	}
}

func users(reqs []Request) []core.UserID {
	out := make([]core.UserID, len(reqs))
	for i, r := range reqs {
		out[i] = r.User
	}
	return out
}
