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

// overlapMasks is what the move kernel reads of an instance, per user:
// the route-overlap table and the routes with their costs d(r) and b(r).
type overlapMasks struct {
	users  []RouteMasks
	routes [][]MoveRoute[task.ID]
}

func newOverlapMasks(in *Instance) *overlapMasks {
	m := &overlapMasks{users: make([]RouteMasks, len(in.Users)), routes: make([][]MoveRoute[task.ID], len(in.Users))}
	on := make([]int32, len(in.Tasks))
	stamp := int32(0)
	var tasks [][]task.ID
	n := 0
	for _, u := range in.Users {
		n += len(u.Routes)
	}
	flat := make([]MoveRoute[task.ID], 0, n)
	for i, u := range in.Users {
		tasks = tasks[:0]
		for _, r := range u.Routes {
			tasks = append(tasks, r.Tasks)
			flat = append(flat, MoveRoute[task.ID]{r.Tasks, in.DetourCost(r), in.CongestionCost(r)})
		}
		m.users[i], stamp = buildRouteMasks(tasks, on, stamp)
		m.routes[i], flat = flat[:len(u.Routes):len(u.Routes)], flat[len(u.Routes):]
	}
	return m
}

// view returns user i's move view over profile p's share caches. It is
// small enough to inline, so a probe builds the view in its own frame.
func (m *overlapMasks) view(p *Profile, i UserID) MoveView[task.ID] {
	u := &p.inst.Users[int(i)]
	return MoveView[task.ID]{u.Alpha, u.Beta, u.Gamma, m.routes[int(i)], &m.users[int(i)], &p.shares}
}

// mask returns user i's overlap mask of route b (nb tasks) against route a.
func (m *overlapMasks) mask(i UserID, a, b, nb int) []uint64 {
	return m.users[int(i)].Mask(a, b, nb)
}
