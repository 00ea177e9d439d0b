package roadnet

import (
	"fmt"
	"math"
)

// SearchScratch is the reusable per-worker state of the routing engine:
// generation-stamped distance/predecessor/heuristic arrays (no O(|V|)
// reinitialization per query), a manually managed binary heap (no
// container/heap interface boxing), and the per-query landmark terms of the
// goal-directed (ALT) search. In steady state a point-to-point query through
// AppendShortestPath performs zero heap allocations.
//
// A scratch is not safe for concurrent use; give each worker its own (the
// Graph-level convenience methods draw from an internal pool). All query
// modes — plain, goal-directed, banned-edge/node, and penalized — share one
// search core with one explicit tie-breaking rule, so every mode returns
// bit-identical paths to the reference Dijkstra implementation.
//
// # Tie-breaking
//
// Where multiple shortest paths exist (exact float-equal costs), the engine
// canonicalizes: among all optimal predecessor edges of a node, the one
// with the lowest EdgeID wins. The rule is applied on relaxation
// (nd == dist[v] && eid < prev[v] updates the predecessor without touching
// the distance), which makes the reconstructed path independent of the
// order in which the priority queue settles equal-cost nodes — the property
// that lets A* with landmark lower bounds return bit-identical routes to
// plain Dijkstra even on tie-heavy unit grids.
type SearchScratch struct {
	g *Graph

	gen     uint32
	dist    []float64
	prev    []EdgeID
	distGen []uint32
	hval    []float64
	hGen    []uint32

	heap []pqEntry

	// ALT state for the current query (nil lm disables the heuristic).
	lm  *Landmarks
	lmT []lmTerm

	// Edge-use counters for penalized alternative-route searches, stamped
	// so resets are O(1).
	uses    []int32
	usesGen []uint32
	useGen  uint32

	settled int
}

// pqEntry is one binary-heap slot: key is dist + heuristic.
type pqEntry struct {
	key  float64
	node NodeID
}

// lmTerm holds the per-query constants of one landmark: the precomputed
// distances between the landmark and the query target.
type lmTerm struct {
	fwdDst float64 // d(L → dst)
	bwdDst float64 // d(dst → L)
	fwdOK  bool
	bwdOK  bool
}

// NewSearchScratch returns a fresh scratch bound to g. Long-lived workers
// that issue many queries should hold one scratch each; one-off callers can
// simply use the Graph methods, which pool scratches internally.
func (g *Graph) NewSearchScratch() *SearchScratch { return &SearchScratch{g: g} }

// ensure sizes the stamped arrays for n nodes and m edges.
func (s *SearchScratch) ensure(n, m int) {
	if len(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]EdgeID, n)
		s.distGen = make([]uint32, n)
		s.hval = make([]float64, n)
		s.hGen = make([]uint32, n)
	}
	if len(s.uses) < m {
		s.uses = make([]int32, m)
		s.usesGen = make([]uint32, m)
	}
}

// nextGen starts a new query generation, clearing stamps in O(1). On the
// (rare) uint32 wraparound the stamp arrays are zeroed so stale generations
// can never alias.
func (s *SearchScratch) nextGen() {
	s.gen++
	if s.gen == 0 {
		for i := range s.distGen {
			s.distGen[i] = 0
			s.hGen[i] = 0
		}
		s.gen = 1
	}
}

// resetUses clears the penalized-search edge counters in O(1).
func (s *SearchScratch) resetUses() {
	s.useGen++
	if s.useGen == 0 {
		for i := range s.usesGen {
			s.usesGen[i] = 0
		}
		s.useGen = 1
	}
}

// bumpUse increments the penalty counter of edge e.
func (s *SearchScratch) bumpUse(e EdgeID) {
	if s.usesGen[e] != s.useGen {
		s.usesGen[e] = s.useGen
		s.uses[e] = 0
	}
	s.uses[e]++
}

// useCount returns the penalty counter of edge e.
func (s *SearchScratch) useCount(e EdgeID) int32 {
	if s.usesGen[e] != s.useGen {
		return 0
	}
	return s.uses[e]
}

// --- binary heap (manual: no interface boxing, reused backing array) ---

func (s *SearchScratch) push(key float64, n NodeID) {
	s.heap = append(s.heap, pqEntry{key: key, node: n})
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].key <= s.heap[i].key {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *SearchScratch) pop() pqEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && s.heap[l].key < s.heap[small].key {
			small = l
		}
		if r < last && s.heap[r].key < s.heap[small].key {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

// --- ALT heuristic ---

// prepareALT resolves the landmark tables for the query weight and caches
// the per-landmark target terms. Penalized searches pass ByLength: their
// edge costs are Length·(1+penalty·uses) ≥ Length, so length lower bounds
// remain admissible. Banned edges/nodes only lengthen paths, so the bounds
// survive those too.
func (s *SearchScratch) prepareALT(dst NodeID, w Weight, disable bool) {
	s.lm = nil
	if disable {
		return
	}
	lm := s.g.landmarksFor(w)
	if lm == nil || len(lm.nodes) == 0 {
		return
	}
	s.lm = lm
	if cap(s.lmT) < len(lm.nodes) {
		s.lmT = make([]lmTerm, len(lm.nodes))
	}
	s.lmT = s.lmT[:len(lm.nodes)]
	for i := range lm.nodes {
		fd, bd := lm.fwd[i][dst], lm.bwd[i][dst]
		s.lmT[i] = lmTerm{
			fwdDst: fd, bwdDst: bd,
			fwdOK: !math.IsInf(fd, 1),
			bwdOK: !math.IsInf(bd, 1),
		}
	}
}

// h returns the landmark lower bound on the distance from v to the query
// target, scaled by altMargin to keep it strictly admissible under
// floating-point error in the precomputed tables. Cached per (query, node).
func (s *SearchScratch) h(v NodeID) float64 {
	if s.lm == nil {
		return 0
	}
	if s.hGen[v] == s.gen {
		return s.hval[v]
	}
	var best float64
	for i := range s.lmT {
		t := &s.lmT[i]
		if t.fwdOK {
			// d(v,dst) ≥ d(L,dst) − d(L,v); an unreachable d(L,v) makes the
			// term −Inf, which the max discards naturally.
			if d := t.fwdDst - s.lm.fwd[i][v]; d > best {
				best = d
			}
		}
		if t.bwdOK {
			// d(v,dst) ≥ d(v,L) − d(dst,L); guard the +Inf − finite case.
			if bv := s.lm.bwd[i][v]; !math.IsInf(bv, 1) {
				if d := bv - t.bwdDst; d > best {
					best = d
				}
			}
		}
	}
	best *= altMargin
	s.hval[v] = best
	s.hGen[v] = s.gen
	return best
}

// --- search core ---

// searchOpts selects the query mode.
type searchOpts struct {
	w           Weight
	bannedEdges map[EdgeID]bool
	bannedNodes map[NodeID]bool
	penalized   bool // cost = Length·(1 + penalty·uses[e]); w is ignored
	penalty     float64
	noALT       bool // force the plain-Dijkstra fallback
}

// run executes one goal-directed search and leaves the labels in the
// scratch. It reports whether dst was reached. The loop is A* with lazy
// deletion and re-expansion: a popped entry whose key exceeds the node's
// current dist+h is stale and skipped; a node whose label improves after it
// was settled simply re-enters the queue. Termination is when the minimum
// popped key exceeds the target's label — with the margin-scaled admissible
// heuristic this settles every optimal predecessor (including exact-tie
// ones), which is what makes the canonical tie-breaking deterministic
// across query modes.
func (s *SearchScratch) run(src, dst NodeID, o searchOpts) bool {
	g := s.g
	s.ensure(g.NumNodes(), g.NumEdges())
	s.nextGen()
	hw := o.w
	if o.penalized {
		hw = ByLength
	}
	s.prepareALT(dst, hw, o.noALT)
	s.heap = s.heap[:0]
	s.settled = 0
	s.dist[src] = 0
	s.prev[src] = -1
	s.distGen[src] = s.gen
	s.push(s.h(src), src)
	for len(s.heap) > 0 {
		it := s.pop()
		if s.distGen[dst] == s.gen && it.key > s.dist[dst] {
			break
		}
		u := it.node
		if it.key > s.dist[u]+s.h(u) {
			continue // stale entry: the label improved after this push
		}
		s.settled++
		du := s.dist[u]
		for _, eid := range g.out[u] {
			if o.bannedEdges != nil && o.bannedEdges[eid] {
				continue
			}
			e := &g.Edges[eid]
			v := e.To
			if o.bannedNodes != nil && o.bannedNodes[v] {
				continue
			}
			var cost float64
			if o.penalized {
				cost = e.Length * (1 + o.penalty*float64(s.useCount(eid)))
			} else if o.w == ByTime {
				cost = e.Length / e.Speed
			} else {
				cost = e.Length
			}
			nd := du + cost
			if s.distGen[v] != s.gen || nd < s.dist[v] {
				s.dist[v] = nd
				s.prev[v] = eid
				s.distGen[v] = s.gen
				s.push(nd+s.h(v), v)
			} else if nd == s.dist[v] && eid < s.prev[v] {
				// Canonical tie-break: lowest optimal predecessor edge wins.
				s.prev[v] = eid
			}
		}
	}
	if s.lm != nil {
		if n := g.NumNodes(); n > 0 {
			landmarkPruneRatio.Set(1 - float64(s.settled)/float64(n))
		}
	}
	return s.distGen[dst] == s.gen
}

// appendPathEdges reconstructs the edge sequence src→dst from the scratch
// labels, appending to buf (reversing in place, so no allocation when buf
// has capacity).
func (s *SearchScratch) appendPathEdges(buf []EdgeID, src, dst NodeID) []EdgeID {
	start := len(buf)
	for at := dst; at != src; {
		eid := s.prev[at]
		buf = append(buf, eid)
		at = s.g.Edges[eid].From
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// checkEndpoints validates query endpoints against the bound graph.
func (s *SearchScratch) checkEndpoints(src, dst NodeID) error {
	if n := s.g.NumNodes(); int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return fmt.Errorf("roadnet: shortest path endpoints out of range: %d->%d", src, dst)
	}
	return nil
}

// AppendShortestPath appends the minimum-cost edge sequence from src to dst
// under w to buf and returns the extended buffer plus the path cost. It is
// the zero-allocation query path: with a warm scratch and a buf of
// sufficient capacity, no allocations are performed. src == dst yields an
// empty path and cost 0.
func (s *SearchScratch) AppendShortestPath(buf []EdgeID, src, dst NodeID, w Weight) ([]EdgeID, float64, error) {
	if err := s.checkEndpoints(src, dst); err != nil {
		return buf, 0, err
	}
	if !s.run(src, dst, searchOpts{w: w}) {
		return buf, 0, fmt.Errorf("roadnet: node %d unreachable from %d", dst, src)
	}
	if src == dst {
		return buf, 0, nil
	}
	return s.appendPathEdges(buf, src, dst), s.dist[dst], nil
}

// ShortestPath returns the minimum-cost path from src to dst under w. The
// result Path is freshly allocated; the search state is reused.
func (s *SearchScratch) ShortestPath(src, dst NodeID, w Weight) (Path, error) {
	return s.shortestPath(src, dst, searchOpts{w: w})
}

// shortestPath runs one search in any mode and materializes the Path.
func (s *SearchScratch) shortestPath(src, dst NodeID, o searchOpts) (Path, error) {
	if err := s.checkEndpoints(src, dst); err != nil {
		return Path{}, err
	}
	if !s.run(src, dst, o) {
		return Path{}, fmt.Errorf("roadnet: node %d unreachable from %d", dst, src)
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, nil
	}
	edges := s.appendPathEdges(make([]EdgeID, 0, 16), src, dst)
	return s.g.NewPath(edges)
}
