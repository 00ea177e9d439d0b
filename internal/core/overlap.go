package core

// overlapMasks is the route-overlap table of an instance: for every user i
// and every ordered pair (a, b) of its recommended routes, a bitmask over
// the positions of Routes[b].Tasks whose bit p is set iff Routes[b].Tasks[p]
// is also covered by Routes[a]. The padding bits past the end of a route
// are set too, so the complement of a mask holds exactly the positions of
// L_b \ L_a. A probe of the move a→b walks the complement of (a, b) for
// the tasks user i would join and that of (b, a) for the tasks it would
// leave — the symmetric difference, in route order, with no marking pass.
//
// The table depends only on the instance and is immutable once built.
type overlapMasks struct {
	// first[i] is the index of user i's route 0 in off.
	first []int
	// off[first[i]+b] is where route b's masks start in bits: with
	// w = maskWords(len(Routes[b].Tasks)), the mask against route a is
	// bits[off+a·w : off+(a+1)·w].
	off  []int
	bits []uint64
}

// maskWords is the number of 64-bit mask words covering a route of n tasks.
func maskWords(n int) int { return (n + 63) >> 6 }

func newOverlapMasks(in *Instance) *overlapMasks {
	m := &overlapMasks{first: make([]int, len(in.Users))}
	size := 0
	for i, u := range in.Users {
		m.first[i] = len(m.off)
		for _, r := range u.Routes {
			m.off = append(m.off, size)
			size += len(u.Routes) * maskWords(len(r.Tasks))
		}
	}
	m.bits = make([]uint64, size)
	on := make([]int32, len(in.Tasks)) // on[k] == stamp ⟺ k ∈ L_a
	stamp := int32(0)
	for i, u := range in.Users {
		for a, ra := range u.Routes {
			stamp++
			for _, k := range ra.Tasks {
				on[k] = stamp
			}
			for b, rb := range u.Routes {
				w := m.mask(UserID(i), a, b, len(rb.Tasks))
				for p, k := range rb.Tasks {
					if on[k] == stamp {
						w[p>>6] |= 1 << (p & 63)
					}
				}
				if tail := len(rb.Tasks) & 63; tail != 0 {
					w[len(w)-1] |= ^uint64(0) << tail
				}
			}
		}
	}
	return m
}

// mask returns user i's overlap mask of route b (nb tasks) against route a.
func (m *overlapMasks) mask(i UserID, a, b, nb int) []uint64 {
	w := maskWords(nb)
	o := m.off[m.first[int(i)]+b] + a*w
	return m.bits[o : o+w : o+w]
}
