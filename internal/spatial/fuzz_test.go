package spatial

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// FuzzWithinRadiusOfPolyline checks the prefiltered coverage query against
// the brute-force scan over random polylines: one byte of shape per vertex
// picks a random, repeated (zero-length segment), axis-parallel or
// collinear next point, coordinates reach 1e7, and besides random items
// every segment gets items at exactly distance r from one of its points
// (the point plus r times the unit normal, and r past each end along the
// segment) and one ulp either side of each.
func FuzzWithinRadiusOfPolyline(f *testing.F) {
	f.Add(uint64(1), 0.0, 500.0, 50.0, []byte{0, 0, 0, 0})
	f.Add(uint64(2), 1e7, 300.0, 40.0, []byte{1})
	f.Add(uint64(3), -9.99e6, 1e4, 40.0, []byte{0, 1, 2, 3, 2, 3})
	f.Add(uint64(4), 3.3e6, 0.001, 0.1, []byte{3, 3, 3, 3})
	f.Add(uint64(5), 1e7, 200.0, 0.0, []byte{2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed uint64, center, spread, r float64, shape []byte) {
		center = finiteMod(center, 1e7)
		spread = math.Abs(finiteMod(spread, 1e4))
		r = math.Abs(finiteMod(r, 1e3))
		if len(shape) > 12 {
			shape = shape[:12]
		}
		s := rng.New(seed)
		jitter := func() float64 { return center + s.Uniform(-spread, spread) }
		pl := geo.Polyline{geo.Pt(jitter(), jitter())}
		for _, b := range shape {
			prev := pl[len(pl)-1]
			next := geo.Pt(jitter(), jitter())
			switch b % 4 {
			case 1: // zero-length segment
				next = prev
			case 2: // axis-parallel segment
				if b&4 == 0 {
					next.X = prev.X
				} else {
					next.Y = prev.Y
				}
			case 3: // collinear with the previous segment
				if len(pl) > 1 {
					next = prev.Add(prev.Sub(pl[len(pl)-2]).Scale(s.Uniform(0, 2)))
				}
			}
			pl = append(pl, next)
		}

		var items []Item
		add := func(p geo.Point) {
			for _, q := range []geo.Point{
				p,
				geo.Pt(math.Nextafter(p.X, math.Inf(1)), p.Y),
				geo.Pt(math.Nextafter(p.X, math.Inf(-1)), p.Y),
				geo.Pt(p.X, math.Nextafter(p.Y, math.Inf(1))),
				geo.Pt(p.X, math.Nextafter(p.Y, math.Inf(-1))),
			} {
				items = append(items, Item{Pos: q, ID: len(items)})
			}
		}
		box := geo.Bound(pl).Expand(2*r + 1)
		for i := 0; i < 20; i++ {
			add(geo.Pt(s.Uniform(box.Min.X, box.Max.X), s.Uniform(box.Min.Y, box.Max.Y)))
		}
		for i := range pl {
			a, b := pl[i], pl[min(i+1, len(pl)-1)]
			d := b.Sub(a)
			u := geo.Pt(1, 0)
			if l := d.Norm(); l > 0 {
				u = d.Scale(1 / l)
			}
			n := geo.Pt(-u.Y, u.X)
			for _, tt := range []float64{0, 1, s.Float64()} {
				q := a.Lerp(b, tt)
				add(q.Add(n.Scale(r)))
				add(q.Sub(n.Scale(r)))
			}
			add(a.Sub(u.Scale(r)))
			add(b.Add(u.Scale(r)))
		}

		idx := FromItems(items)
		got := idx.WithinRadiusOfPolyline(pl, r, nil)
		want := bruteWithinPolyline(items, pl, r)
		if !equalInts(got, want) {
			t.Fatalf("polyline %v r=%v: quadtree %v, brute force %v", pl, r, got, want)
		}
	})
}

// finiteMod maps v into (-m, m), sending NaN and ±Inf to 0.
func finiteMod(v, m float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, m)
}
