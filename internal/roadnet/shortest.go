package roadnet

import (
	"container/heap"
	"math"
)

// Weight selects the edge cost used by the shortest-path routines.
type Weight int

const (
	// ByLength weights edges by their length in meters (used for detour
	// distance h(r), which the paper defines against the shortest route).
	ByLength Weight = iota
	// ByTime weights edges by expected travel time (length/speed).
	ByTime
)

func (w Weight) cost(e Edge) float64 {
	if w == ByTime {
		return e.TravelTime()
	}
	return e.Length
}

// pqItem is a priority-queue entry for the container/heap-based Dijkstras
// (one-shot table builds and the reference implementation; the query engine
// in search.go uses its own boxing-free heap).
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap over pqItem.
type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// ShortestPath returns the minimum-cost path from src to dst under the given
// weight. Queries run on the routing engine: goal-directed A* with landmark
// lower bounds on graphs large enough to amortize the tables, plain Dijkstra
// below that, both over a pooled zero-reinit scratch and both returning
// bit-identical paths to the reference implementation (see SearchScratch for
// the canonical tie-breaking rule). It returns an error if dst is
// unreachable.
func (g *Graph) ShortestPath(src, dst NodeID, w Weight) (Path, error) {
	s, c := g.getScratch()
	defer g.putScratch(c, s)
	return s.ShortestPath(src, dst, w)
}

// shortestPathBanned is the engine search with banned edges/nodes (may be
// nil) skipped — Yen's algorithm uses this to force spur paths off the root.
func (g *Graph) shortestPathBanned(src, dst NodeID, w Weight, bannedEdges map[EdgeID]bool, bannedNodes map[NodeID]bool) (Path, error) {
	s, c := g.getScratch()
	defer g.putScratch(c, s)
	return s.shortestPath(src, dst, searchOpts{w: w, bannedEdges: bannedEdges, bannedNodes: bannedNodes})
}

// AllShortestDists runs Dijkstra from src and returns the distance to every
// node (Inf for unreachable) under the given weight.
func (g *Graph) AllShortestDists(src NodeID, w Weight) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &pq{{node: src, dist: 0}}
	done := make([]bool, n)
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, eid := range g.out[u] {
			e := g.Edges[eid]
			if nd := dist[u] + w.cost(e); nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(h, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing cost order, using Yen's algorithm: the first path is the
// shortest route, and the alternatives are the next-best simple detours. It
// is the comparison baseline for AlternativeRoutes, the route recommender
// the scenario builder uses (on grids Yen returns equal-length permutations
// of one corridor). It returns fewer than k paths when the graph does not
// contain that many simple paths. An error is returned only if no path
// exists at all.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, w Weight) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPath(src, dst, w)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	if src == dst {
		return paths, nil
	}
	// Candidate pool: potential k-th shortest paths discovered from spurs.
	var candidates []Path
	costOf := func(p Path) float64 {
		if w == ByTime {
			return p.Time
		}
		return p.Length
	}
	var seen pathSet
	seen.Add(first.Edges)

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prev.Nodes[i]
			rootEdges := prev.Edges[:i]

			bannedEdges := map[EdgeID]bool{}
			for _, p := range paths {
				if len(p.Edges) > i && edgesPrefixEqual(p.Edges, rootEdges) {
					bannedEdges[p.Edges[i]] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, nd := range prev.Nodes[:i] {
				bannedNodes[nd] = true
			}

			spur, err := g.shortestPathBanned(spurNode, dst, w, bannedEdges, bannedNodes)
			if err != nil {
				continue
			}
			total := append(append([]EdgeID(nil), rootEdges...), spur.Edges...)
			cand, err := g.NewPath(total)
			if err != nil {
				continue
			}
			if !seen.Add(cand.Edges) {
				continue
			}
			candidates = append(candidates, cand)
		}
		if len(candidates) == 0 {
			break
		}
		// Extract the cheapest candidate.
		bi, bc := 0, costOf(candidates[0])
		for i := 1; i < len(candidates); i++ {
			if c := costOf(candidates[i]); c < bc {
				bi, bc = i, c
			}
		}
		paths = append(paths, candidates[bi])
		candidates = append(candidates[:bi], candidates[bi+1:]...)
	}
	return paths, nil
}

// edgesPrefixEqual reports whether p begins with the given prefix.
func edgesPrefixEqual(p, prefix []EdgeID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

// pathSet tracks distinct edge sequences without building a string key per
// path (the old pathKey allocated and formatted every edge ID). Sequences
// hash by FNV-1a over the raw IDs; a hash hit falls back to an exact
// edge-slice compare, so collisions cannot merge distinct paths. The zero
// value is ready to use.
type pathSet struct {
	m map[uint64][][]EdgeID
}

// hashEdges is FNV-1a over the edge IDs, allocation-free.
func hashEdges(edges []EdgeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range edges {
		v := uint64(e)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

func edgesEqual(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Has reports whether the exact edge sequence is present.
func (ps *pathSet) Has(edges []EdgeID) bool {
	for _, have := range ps.m[hashEdges(edges)] {
		if edgesEqual(have, edges) {
			return true
		}
	}
	return false
}

// Add inserts the edge sequence and reports whether it was new. The slice
// is retained; callers must not mutate it afterwards (path edge slices are
// immutable once built).
func (ps *pathSet) Add(edges []EdgeID) bool {
	h := hashEdges(edges)
	for _, have := range ps.m[h] {
		if edgesEqual(have, edges) {
			return false
		}
	}
	if ps.m == nil {
		ps.m = make(map[uint64][][]EdgeID)
	}
	ps.m[h] = append(ps.m[h], edges)
	return true
}

// IsSimple reports whether the path visits each node at most once.
func (p Path) IsSimple() bool {
	seen := make(map[NodeID]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}
