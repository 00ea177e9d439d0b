// Package spatial provides a point quadtree used to answer the scenario
// builder's coverage queries — "which tasks lie within the sensing radius
// of this route?" — in O(log n) per probe instead of scanning every task
// for every route segment.
package spatial

import (
	"slices"

	"repro/internal/geo"
)

// maxLeaf is the bucket size before a node splits.
const maxLeaf = 8

// maxDepth bounds the tree in the presence of duplicate points.
const maxDepth = 24

// Item is a point with an opaque integer payload (e.g. a task ID).
type Item struct {
	Pos geo.Point
	ID  int
}

// Index is a point quadtree over a fixed bounding box.
type Index struct {
	root   *node
	bounds geo.Rect
	count  int
}

type node struct {
	bounds   geo.Rect
	items    []Item // leaf payload
	children *[4]node
	depth    int
}

// New builds an index covering the given bounds. Points inserted outside
// the bounds are clamped into it (the scenario areas always cover all
// tasks, so clamping is a safety net, not a common path).
func New(bounds geo.Rect) *Index {
	return &Index{root: &node{bounds: bounds}, bounds: bounds}
}

// FromItems builds an index sized to the items' bounding box.
func FromItems(items []Item) *Index {
	pts := make([]geo.Point, len(items))
	for i, it := range items {
		pts[i] = it.Pos
	}
	idx := New(geo.Bound(pts).Expand(1))
	for _, it := range items {
		idx.Insert(it)
	}
	return idx
}

// Len returns the number of stored items.
func (x *Index) Len() int { return x.count }

// Bounds returns the indexed area.
func (x *Index) Bounds() geo.Rect { return x.bounds }

// Insert adds an item.
func (x *Index) Insert(it Item) {
	it.Pos = clampPoint(it.Pos, x.bounds)
	x.root.insert(it)
	x.count++
}

func clampPoint(p geo.Point, r geo.Rect) geo.Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	}
	if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	}
	if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

func (n *node) insert(it Item) {
	if n.children == nil {
		if len(n.items) < maxLeaf || n.depth >= maxDepth {
			n.items = append(n.items, it)
			return
		}
		n.split()
	}
	n.childFor(it.Pos).insert(it)
}

func (n *node) split() {
	c := n.bounds.Center()
	b := n.bounds
	n.children = &[4]node{
		{bounds: geo.Rect{Min: b.Min, Max: c}, depth: n.depth + 1},                                   // SW
		{bounds: geo.Rect{Min: geo.Pt(c.X, b.Min.Y), Max: geo.Pt(b.Max.X, c.Y)}, depth: n.depth + 1}, // SE
		{bounds: geo.Rect{Min: geo.Pt(b.Min.X, c.Y), Max: geo.Pt(c.X, b.Max.Y)}, depth: n.depth + 1}, // NW
		{bounds: geo.Rect{Min: c, Max: b.Max}, depth: n.depth + 1},                                   // NE
	}
	items := n.items
	n.items = nil
	for _, it := range items {
		n.childFor(it.Pos).insert(it)
	}
}

func (n *node) childFor(p geo.Point) *node {
	c := n.bounds.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	return &n.children[i]
}

// Walk visits every stored item in depth-first quadrant order (SW, SE,
// NW, NE at each split). Items sharing a quadtree cell are visited
// consecutively, so the visit order clusters spatial neighbors — the
// property the shard partitioner in distributed/federation relies on to
// cut a user population into spatially coherent contiguous ranges.
func (x *Index) Walk(fn func(Item)) {
	x.root.walk(fn)
}

func (n *node) walk(fn func(Item)) {
	for _, it := range n.items {
		fn(it)
	}
	if n.children != nil {
		for i := range n.children {
			n.children[i].walk(fn)
		}
	}
}

// WithinRadiusOfPoint appends to dst the IDs of items within r of p.
func (x *Index) WithinRadiusOfPoint(p geo.Point, r float64, dst []int) []int {
	query := geo.Rect{Min: geo.Pt(p.X-r, p.Y-r), Max: geo.Pt(p.X+r, p.Y+r)}
	return x.root.collect(query, dst, func(it Item) bool {
		return it.Pos.Dist(p) <= r
	})
}

// WithinRadiusOfPolyline appends to dst the IDs of items within r of any
// segment of the polyline. IDs are deduplicated and returned in ascending
// order.
//
// For finite r and coordinates, an item is reported exactly when
// pl.DistToPoint(it.Pos) <= r: the same floating-point distances decide,
// but only for items in the polyline's box widened by reach, only for the
// segments whose widened box holds the item, and the first segment within
// r settles it.
func (x *Index) WithinRadiusOfPolyline(pl geo.Polyline, r float64, dst []int) []int {
	if len(pl) == 0 {
		return dst
	}
	box := geo.Bound(pl)
	reach := r + padRel*(max(-box.Min.X, box.Max.X, -box.Min.Y, box.Max.Y, 0)+r)
	dst = x.root.collect(box.Expand(reach), dst, func(it Item) bool {
		return nearPolyline(pl, it.Pos, r, reach)
	})
	return dedupSortedInts(dst)
}

// padRel scales the rounding pad that widens a box by more than r. For
// coordinates of magnitude at most S, a segment's computed closest point
// (Segment.ClosestPoint's Lerp with t in [0,1]) lies within ~8u·S of the
// segment's box, and rounding the offset to the item and the box bound
// itself add ~u·(S+r) more (u = 2^-53). The distance is a math.Hypot of
// that offset, which is never below either component's magnitude, so an
// item more than r + 1e-9·(S+r) outside the box along either axis is
// farther than r from the segment in floating point too.
const padRel = 1e-9

// nearPolyline reports pl.DistToPoint(p) <= r for a non-empty polyline,
// skipping the exact distance of every segment whose box widened by reach
// excludes p. A NaN coordinate fails every box comparison, so it falls
// through to the exact distance.
func nearPolyline(pl geo.Polyline, p geo.Point, r, reach float64) bool {
	if len(pl) == 1 {
		return pl[0].Dist(p) <= r
	}
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		if p.X > max(a.X, b.X)+reach || p.X < min(a.X, b.X)-reach ||
			p.Y > max(a.Y, b.Y)+reach || p.Y < min(a.Y, b.Y)-reach {
			continue
		}
		if (geo.Segment{A: a, B: b}).DistToPoint(p) <= r {
			return true
		}
	}
	return false
}

// collect walks nodes intersecting the query rect, appending matching IDs.
func (n *node) collect(query geo.Rect, dst []int, match func(Item) bool) []int {
	if !rectsIntersect(n.bounds, query) {
		return dst
	}
	for _, it := range n.items {
		if query.Contains(it.Pos) && match(it) {
			dst = append(dst, it.ID)
		}
	}
	if n.children != nil {
		for i := range n.children {
			dst = n.children[i].collect(query, dst, match)
		}
	}
	return dst
}

func rectsIntersect(a, b geo.Rect) bool {
	return a.Min.X <= b.Max.X && b.Min.X <= a.Max.X &&
		a.Min.Y <= b.Max.Y && b.Min.Y <= a.Max.Y
}

// dedupSortedInts sorts and deduplicates in place.
func dedupSortedInts(v []int) []int {
	slices.Sort(v)
	return slices.Compact(v)
}
