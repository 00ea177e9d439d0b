package core

import "repro/internal/task"

// RouteMasks is the route-overlap table of one user's recommended routes:
// for every ordered pair (a, b) of them, a bitmask over the positions of
// route b's task list whose bit p is set iff route b's p-th task is also
// covered by route a. The padding bits past the end of a route are set
// too, so the complement of a mask holds exactly the positions of
// L_b \ L_a. A probe of the move a→b walks the complement of (a, b) for
// the tasks the user would join and that of (b, a) for the tasks it would
// leave — the symmetric difference, in route order, with no marking pass.
//
// The table depends only on the routes and is immutable once built.
type RouteMasks struct {
	// off[b] is where route b's masks start in bits: with
	// w = maskWords(len(route b)), the mask against route a is
	// bits[off[b]+a·w : off[b]+(a+1)·w].
	off  []int
	bits []uint64
}

// maskWords is the number of 64-bit mask words covering a route of n tasks.
func maskWords(n int) int { return (n + 63) >> 6 }

// NewRouteMasks builds the overlap table of routes, whose task entries lie
// in [0, n). No route may list an entry twice.
func NewRouteMasks[K Index](routes [][]K, n int) RouteMasks {
	m, _ := buildRouteMasks(routes, make([]int32, n), 0)
	return m
}

// buildRouteMasks builds the overlap table of routes. on is marking
// scratch over the task entries holding no value above stamp; the last
// mark used is returned, so one scratch serves many tables without clearing.
func buildRouteMasks[K Index](routes [][]K, on []int32, stamp int32) (RouteMasks, int32) {
	m := RouteMasks{off: make([]int, len(routes))}
	size := 0
	for b, r := range routes {
		m.off[b] = size
		size += len(routes) * maskWords(len(r))
	}
	m.bits = make([]uint64, size)
	for a, ra := range routes {
		stamp++ // on[k] == stamp ⟺ k ∈ L_a
		for _, k := range ra {
			on[k] = stamp
		}
		for b, rb := range routes {
			w := m.Mask(a, b, len(rb))
			for p, k := range rb {
				if on[k] == stamp {
					w[p>>6] |= 1 << (p & 63)
				}
			}
			if tail := len(rb) & 63; tail != 0 {
				w[len(w)-1] |= ^uint64(0) << tail
			}
		}
	}
	return m, stamp
}

// Mask returns the overlap mask of route b (nb tasks) against route a.
func (m *RouteMasks) Mask(a, b, nb int) []uint64 {
	w := maskWords(nb)
	o := m.off[b] + a*w
	return m.bits[o : o+w : o+w]
}

// overlapMasks is the route-overlap table of an instance: one RouteMasks
// per user.
type overlapMasks struct {
	users []RouteMasks
}

func newOverlapMasks(in *Instance) *overlapMasks {
	m := &overlapMasks{users: make([]RouteMasks, len(in.Users))}
	on := make([]int32, len(in.Tasks))
	stamp := int32(0)
	var routes [][]task.ID
	for i, u := range in.Users {
		routes = routes[:0]
		for _, r := range u.Routes {
			routes = append(routes, r.Tasks)
		}
		m.users[i], stamp = buildRouteMasks(routes, on, stamp)
	}
	return m
}

// mask returns user i's overlap mask of route b (nb tasks) against route a.
func (m *overlapMasks) mask(i UserID, a, b, nb int) []uint64 {
	return m.users[int(i)].Mask(a, b, nb)
}
