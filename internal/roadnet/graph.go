// Package roadnet implements the road-network substrate: weighted road
// graphs, shortest paths (goal-directed ALT A* with a plain-Dijkstra
// fallback), penalty-based alternative routes (the offline stand-in for the
// Google Maps route recommendation used in the paper's evaluation), Yen's
// K-shortest simple paths as a comparison baseline, synthetic city
// generators for the three dataset geometries, and the per-route congestion
// index.
package roadnet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
)

// NodeID identifies a node (intersection) in a Graph.
type NodeID int

// EdgeID identifies a directed edge (road segment) in a Graph.
type EdgeID int

// Node is a road intersection.
type Node struct {
	ID  NodeID
	Pos geo.Point
}

// Edge is a directed road segment. Length is in meters; Speed is the current
// average traversal speed in m/s (free-flow speed scaled by local
// congestion); FreeSpeed is the uncongested speed.
type Edge struct {
	ID        EdgeID
	From, To  NodeID
	Length    float64
	Speed     float64
	FreeSpeed float64
}

// TravelTime returns the expected traversal time of the edge in seconds.
func (e Edge) TravelTime() float64 {
	if e.Speed <= 0 {
		return math.Inf(1)
	}
	return e.Length / e.Speed
}

// CongestionFactor returns Speed relative to FreeSpeed in (0,1]; lower means
// more congested.
func (e Edge) CongestionFactor() float64 {
	if e.FreeSpeed <= 0 {
		return 1
	}
	return e.Speed / e.FreeSpeed
}

// Graph is a directed road graph. Nodes and Edges are indexed by their IDs.
//
// Derived structures (reverse-edge map, in-adjacency, landmark tables, the
// query-scratch pool) are built lazily on first use and cached; mutating the
// graph (AddNode/AddEdge/AddRoad) invalidates them. Queries are safe for
// concurrent use; mutation is not safe concurrently with queries.
type Graph struct {
	Nodes []Node
	Edges []Edge
	out   [][]EdgeID // adjacency: out[n] lists edges leaving node n

	caches atomic.Pointer[graphCaches]
}

// graphCaches holds every lazily built derived structure. The whole struct
// is swapped out (reset to nil) on mutation, so a query that raced a
// mutation at worst keeps working on the pre-mutation view it already
// resolved.
type graphCaches struct {
	revOnce   sync.Once
	rev       []EdgeID // rev[e] = opposite-direction twin of e, or -1
	revBuilds atomic.Uint64

	inOnce sync.Once
	in     [][]EdgeID // in[n] lists edges entering node n

	lmOnce [2]sync.Once // indexed by Weight
	lm     [2]*Landmarks

	scratch sync.Pool // *SearchScratch
}

// cachesFor returns the current cache struct, installing one if none exists.
// Safe for concurrent use: on a race, one struct wins the CAS and everyone
// converges on it, so each inner sync.Once still builds exactly once.
func (g *Graph) cachesFor() *graphCaches {
	if c := g.caches.Load(); c != nil {
		return c
	}
	c := &graphCaches{}
	c.scratch.New = func() any { return &SearchScratch{g: g} }
	if g.caches.CompareAndSwap(nil, c) {
		return c
	}
	return g.caches.Load()
}

// invalidate drops every derived structure; called on mutation.
func (g *Graph) invalidate() { g.caches.Store(nil) }

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Reserve pre-sizes the node and edge backing arrays. Generators that know
// their output size call this once so million-node builds stay O(|V|) in
// memory with no growth-reallocation spikes.
func (g *Graph) Reserve(nodes, edges int) {
	if cap(g.Nodes)-len(g.Nodes) < nodes {
		grown := make([]Node, len(g.Nodes), len(g.Nodes)+nodes)
		copy(grown, g.Nodes)
		g.Nodes = grown
		out := make([][]EdgeID, len(g.out), len(g.out)+nodes)
		copy(out, g.out)
		g.out = out
	}
	if cap(g.Edges)-len(g.Edges) < edges {
		grown := make([]Edge, len(g.Edges), len(g.Edges)+edges)
		copy(grown, g.Edges)
		g.Edges = grown
	}
}

// AddNode appends a node at the given position and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Pos: p})
	g.out = append(g.out, nil)
	g.invalidate()
	return id
}

// AddEdge appends a directed edge and returns its ID. Length must be
// positive; speed and freeSpeed must be positive.
func (g *Graph) AddEdge(from, to NodeID, length, speed, freeSpeed float64) (EdgeID, error) {
	if int(from) >= len(g.Nodes) || int(to) >= len(g.Nodes) || from < 0 || to < 0 {
		return 0, fmt.Errorf("roadnet: edge endpoints out of range: %d->%d", from, to)
	}
	if length <= 0 || speed <= 0 || freeSpeed <= 0 {
		return 0, fmt.Errorf("roadnet: nonpositive edge parameters: len=%v speed=%v free=%v", length, speed, freeSpeed)
	}
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, Edge{ID: id, From: from, To: to, Length: length, Speed: speed, FreeSpeed: freeSpeed})
	g.out[from] = append(g.out[from], id)
	g.invalidate()
	return id, nil
}

// reverseEdges returns the cached edge→twin map: reverseEdges()[e] is the
// opposite-direction edge of e, or -1 when the road is one-way. Built once
// per graph (not once per AlternativeRoutes call, as it used to be).
func (g *Graph) reverseEdges() []EdgeID {
	c := g.cachesFor()
	c.revOnce.Do(func() {
		c.revBuilds.Add(1)
		byPair := make(map[[2]NodeID]EdgeID, len(g.Edges))
		for _, e := range g.Edges {
			byPair[[2]NodeID{e.From, e.To}] = e.ID
		}
		rev := make([]EdgeID, len(g.Edges))
		for _, e := range g.Edges {
			rev[e.ID] = -1
			if twin, ok := byPair[[2]NodeID{e.To, e.From}]; ok {
				rev[e.ID] = twin
			}
		}
		c.rev = rev
	})
	return c.rev
}

// inEdges returns the cached in-adjacency: inEdges()[n] lists the edges
// entering node n. Used by the backward Dijkstra of the landmark tables.
func (g *Graph) inEdges() [][]EdgeID {
	c := g.cachesFor()
	c.inOnce.Do(func() {
		in := make([][]EdgeID, len(g.Nodes))
		for _, e := range g.Edges {
			in[e.To] = append(in[e.To], e.ID)
		}
		c.in = in
	})
	return c.in
}

// getScratch returns a pooled SearchScratch sized for this graph; return it
// with putScratch. The pool lives on the cache struct, so mutation retires
// stale scratches along with everything else.
func (g *Graph) getScratch() (*SearchScratch, *graphCaches) {
	c := g.cachesFor()
	s := c.scratch.Get().(*SearchScratch)
	s.g = g
	return s, c
}

func (g *Graph) putScratch(c *graphCaches, s *SearchScratch) { c.scratch.Put(s) }

// AddRoad adds a bidirectional road (two directed edges) whose length is the
// Euclidean distance between the endpoints.
func (g *Graph) AddRoad(a, b NodeID, speed, freeSpeed float64) error {
	l := g.Nodes[a].Pos.Dist(g.Nodes[b].Pos)
	if _, err := g.AddEdge(a, b, l, speed, freeSpeed); err != nil {
		return err
	}
	_, err := g.AddEdge(b, a, l, speed, freeSpeed)
	return err
}

// Out returns the IDs of edges leaving node n.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the directed-edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Pos returns the position of node n.
func (g *Graph) Pos(n NodeID) geo.Point { return g.Nodes[n].Pos }

// NearestNode returns the node closest to p. It panics on an empty graph.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	if len(g.Nodes) == 0 {
		panic("roadnet: NearestNode on empty graph")
	}
	best, bd := NodeID(0), math.Inf(1)
	for _, n := range g.Nodes {
		if d := n.Pos.Dist(p); d < bd {
			best, bd = n.ID, d
		}
	}
	return best
}

// Path is a sequence of edges forming a walk through the graph, plus its
// cached aggregate measures.
type Path struct {
	Edges  []EdgeID
	Nodes  []NodeID // Nodes[i] precedes Edges[i]; len(Nodes) == len(Edges)+1
	Length float64  // total length in meters
	Time   float64  // total travel time in seconds
}

// NewPath assembles a Path from an edge sequence, validating continuity.
func (g *Graph) NewPath(edges []EdgeID) (Path, error) {
	if len(edges) == 0 {
		return Path{}, fmt.Errorf("roadnet: empty path")
	}
	p := Path{Edges: append([]EdgeID(nil), edges...)}
	p.Nodes = make([]NodeID, 0, len(edges)+1)
	p.Nodes = append(p.Nodes, g.Edges[edges[0]].From)
	for i, eid := range edges {
		e := g.Edges[eid]
		if e.From != p.Nodes[len(p.Nodes)-1] {
			return Path{}, fmt.Errorf("roadnet: discontinuous path at edge %d (index %d)", eid, i)
		}
		p.Nodes = append(p.Nodes, e.To)
		p.Length += e.Length
		p.Time += e.TravelTime()
	}
	return p, nil
}

// Polyline returns the path geometry as a polyline of node positions.
func (g *Graph) Polyline(p Path) geo.Polyline {
	pl := make(geo.Polyline, 0, len(p.Nodes))
	for _, n := range p.Nodes {
		pl = append(pl, g.Pos(n))
	}
	return pl
}

// Congestion returns the length-weighted congestion index of a path:
// the mean over edges of (FreeSpeed/Speed - 1) weighted by edge length,
// scaled by 10 so typical values land in the paper's 0..~15 range. A path
// entirely at free-flow speed has congestion 0.
func (g *Graph) Congestion(p Path) float64 {
	if p.Length == 0 {
		return 0
	}
	var acc float64
	for _, eid := range p.Edges {
		e := g.Edges[eid]
		acc += e.Length * (e.FreeSpeed/e.Speed - 1)
	}
	return 10 * acc / p.Length
}

// PathEqual reports whether two paths traverse the same edge sequence.
func PathEqual(a, b Path) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}
