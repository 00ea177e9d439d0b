package roadnet

import (
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// CityKind selects one of the three synthetic city geometries, each matching
// the road structure of the corresponding real dataset in §5.1 of the paper.
type CityKind int

const (
	// GridCity is a dense Manhattan-style grid (Shanghai).
	GridCity CityKind = iota
	// RadialCity is a radial-ring historic-center layout (Roma).
	RadialCity
	// HillCity is a grid with heterogeneous speeds by district (Epfl / San
	// Francisco Bay Area: hills slow some corridors down).
	HillCity
)

// String implements fmt.Stringer.
func (k CityKind) String() string {
	switch k {
	case GridCity:
		return "grid"
	case RadialCity:
		return "radial"
	case HillCity:
		return "hill"
	}
	return "unknown"
}

// CityConfig parametrizes synthetic city generation.
type CityConfig struct {
	Kind CityKind
	// Grid dimensions (GridCity, HillCity).
	Rows, Cols int
	// Block edge length in meters.
	BlockLen float64
	// Radial parameters (RadialCity).
	Rings, Spokes int
	RingGap       float64
	// FreeSpeed is the uncongested speed in m/s.
	FreeSpeed float64
	// CongestionLevel in [0,1): expected fraction of speed lost to traffic.
	// Individual edges draw their factor around this level.
	CongestionLevel float64
	// Jitter perturbs node positions by up to this fraction of BlockLen to
	// avoid perfectly degenerate tie distances.
	Jitter float64
	// ArterialEvery promotes every k-th grid row and column to an arterial
	// and every k²-th to an expressway (GridCity only), mirroring the road
	// tiers of real street networks. Zero (the default) leaves the grid
	// single-tier.
	ArterialEvery int
	// ArterialSpeedup multiplies both the congested and free-flow speed of
	// arterial roads; expressways get twice this multiplier.
	ArterialSpeedup float64
}

// DefaultCity returns the standard configuration for each city kind, sized
// so that the §5 experiments (up to 100 users, 200 tasks) fit comfortably.
func DefaultCity(kind CityKind) CityConfig {
	switch kind {
	case RadialCity:
		return CityConfig{
			Kind: RadialCity, Rings: 6, Spokes: 12, RingGap: 400,
			FreeSpeed: 11, CongestionLevel: 0.35, Jitter: 0.05,
		}
	case HillCity:
		return CityConfig{
			Kind: HillCity, Rows: 10, Cols: 10, BlockLen: 350,
			FreeSpeed: 13, CongestionLevel: 0.25, Jitter: 0.05,
		}
	default:
		return CityConfig{
			Kind: GridCity, Rows: 12, Cols: 12, BlockLen: 300,
			FreeSpeed: 12, CongestionLevel: 0.3, Jitter: 0.05,
		}
	}
}

// GenerateCity builds a road graph per the configuration, drawing congestion
// and jitter from the given stream. The resulting graph is strongly
// connected by construction (all roads are bidirectional, the skeleton is
// connected).
func GenerateCity(cfg CityConfig, s *rng.Stream) *Graph {
	switch cfg.Kind {
	case RadialCity:
		return generateRadial(cfg, s)
	case HillCity:
		return generateHill(cfg, s)
	default:
		return generateGrid(cfg, s)
	}
}

// edgeSpeed draws a congested speed for one road around the configured
// congestion level, clamped to at least 10% of free-flow.
func edgeSpeed(cfg CityConfig, s *rng.Stream, localBias float64) float64 {
	level := cfg.CongestionLevel + localBias
	factor := 1 - level + s.Uniform(-0.15, 0.15)
	if factor < 0.1 {
		factor = 0.1
	}
	if factor > 1 {
		factor = 1
	}
	return cfg.FreeSpeed * factor
}

func jitterPos(cfg CityConfig, s *rng.Stream, p geo.Point) geo.Point {
	if cfg.Jitter <= 0 {
		return p
	}
	j := cfg.Jitter * cfg.BlockLen
	if j == 0 {
		j = cfg.Jitter * cfg.RingGap
	}
	return geo.Pt(p.X+s.Uniform(-j, j), p.Y+s.Uniform(-j, j))
}

func generateGrid(cfg CityConfig, s *rng.Stream) *Graph {
	g := NewGraph()
	// Exact-size reservation plus positional node IDs (row-major, so
	// id(r,c) needs no side table): million-node grids build in O(|V|)
	// memory with no slice-growth spikes and no O(|V|) scaffolding.
	g.Reserve(cfg.Rows*cfg.Cols, 2*(cfg.Rows*(cfg.Cols-1)+(cfg.Rows-1)*cfg.Cols))
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			p := geo.Pt(float64(c)*cfg.BlockLen, float64(r)*cfg.BlockLen)
			g.AddNode(jitterPos(cfg, s, p))
		}
	}
	id := func(r, c int) NodeID { return NodeID(r*cfg.Cols + c) }
	// Central blocks are more congested, like a CBD.
	centerR, centerC := float64(cfg.Rows-1)/2, float64(cfg.Cols-1)/2
	bias := func(r, c int) float64 {
		dr := (float64(r) - centerR) / math.Max(1, centerR)
		dc := (float64(c) - centerC) / math.Max(1, centerC)
		dist := math.Hypot(dr, dc)
		return 0.35 * math.Max(0, 1-dist) // up to +0.35 congestion downtown
	}
	// tier returns the speed multiplier of a grid line: 1 for local
	// streets, ArterialSpeedup for arterials, twice that for expressways.
	tier := func(line int) float64 {
		if cfg.ArterialEvery <= 0 || line%cfg.ArterialEvery != 0 {
			return 1
		}
		if line%(cfg.ArterialEvery*cfg.ArterialEvery) == 0 {
			return 2 * cfg.ArterialSpeedup
		}
		return cfg.ArterialSpeedup
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				sp := edgeSpeed(cfg, s, bias(r, c))
				m := tier(r)
				mustRoad(g, id(r, c), id(r, c+1), sp*m, cfg.FreeSpeed*m)
			}
			if r+1 < cfg.Rows {
				sp := edgeSpeed(cfg, s, bias(r, c))
				m := tier(c)
				mustRoad(g, id(r, c), id(r+1, c), sp*m, cfg.FreeSpeed*m)
			}
		}
	}
	return g
}

func generateRadial(cfg CityConfig, s *rng.Stream) *Graph {
	g := NewGraph()
	g.Reserve(1+cfg.Rings*cfg.Spokes, 2*cfg.Spokes*(1+2*cfg.Rings))
	center := g.AddNode(geo.Pt(0, 0))
	// rings[i][j] is node on ring i (1-based rings), spoke j.
	rings := make([][]NodeID, cfg.Rings)
	for i := 0; i < cfg.Rings; i++ {
		rings[i] = make([]NodeID, cfg.Spokes)
		radius := float64(i+1) * cfg.RingGap
		for j := 0; j < cfg.Spokes; j++ {
			ang := 2 * math.Pi * float64(j) / float64(cfg.Spokes)
			p := geo.Pt(radius*math.Cos(ang), radius*math.Sin(ang))
			rings[i][j] = g.AddNode(jitterPos(cfg, s, p))
		}
	}
	// Inner rings are more congested (historic center).
	bias := func(ring int) float64 {
		return 0.4 * (1 - float64(ring)/float64(cfg.Rings))
	}
	// Spoke roads: center -> ring0, ring_i -> ring_{i+1}.
	for j := 0; j < cfg.Spokes; j++ {
		mustRoad(g, center, rings[0][j], edgeSpeed(cfg, s, bias(0)), cfg.FreeSpeed)
		for i := 0; i+1 < cfg.Rings; i++ {
			mustRoad(g, rings[i][j], rings[i+1][j], edgeSpeed(cfg, s, bias(i)), cfg.FreeSpeed)
		}
	}
	// Ring roads.
	for i := 0; i < cfg.Rings; i++ {
		for j := 0; j < cfg.Spokes; j++ {
			next := (j + 1) % cfg.Spokes
			mustRoad(g, rings[i][j], rings[i][next], edgeSpeed(cfg, s, bias(i)), cfg.FreeSpeed)
		}
	}
	return g
}

func generateHill(cfg CityConfig, s *rng.Stream) *Graph {
	g := NewGraph()
	g.Reserve(cfg.Rows*cfg.Cols, 2*(cfg.Rows*(cfg.Cols-1)+(cfg.Rows-1)*cfg.Cols)+2*minInt(cfg.Rows, cfg.Cols))
	ids := make([][]NodeID, cfg.Rows)
	// Hills: a few random district centers slow nearby roads.
	type hill struct {
		r, c   float64
		radius float64
	}
	hills := make([]hill, 3)
	for i := range hills {
		hills[i] = hill{
			r:      s.Uniform(0, float64(cfg.Rows-1)),
			c:      s.Uniform(0, float64(cfg.Cols-1)),
			radius: s.Uniform(1.5, 3.5),
		}
	}
	bias := func(r, c int) float64 {
		var b float64
		for _, h := range hills {
			d := math.Hypot(float64(r)-h.r, float64(c)-h.c)
			if d < h.radius {
				b += 0.3 * (1 - d/h.radius)
			}
		}
		return math.Min(b, 0.4)
	}
	for r := 0; r < cfg.Rows; r++ {
		ids[r] = make([]NodeID, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			p := geo.Pt(float64(c)*cfg.BlockLen, float64(r)*cfg.BlockLen)
			ids[r][c] = g.AddNode(jitterPos(cfg, s, p))
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				mustRoad(g, ids[r][c], ids[r][c+1], edgeSpeed(cfg, s, bias(r, c)), cfg.FreeSpeed)
			}
			if r+1 < cfg.Rows {
				mustRoad(g, ids[r][c], ids[r+1][c], edgeSpeed(cfg, s, bias(r, c)), cfg.FreeSpeed)
			}
		}
	}
	// A couple of diagonal expressways (faster than free grid speed).
	diag := []struct{ r1, c1, r2, c2 int }{
		{0, 0, cfg.Rows - 1, cfg.Cols - 1},
	}
	for _, d := range diag {
		steps := minInt(cfg.Rows, cfg.Cols) - 1
		prev := ids[d.r1][d.c1]
		for i := 1; i <= steps; i++ {
			r := d.r1 + (d.r2-d.r1)*i/steps
			c := d.c1 + (d.c2-d.c1)*i/steps
			cur := ids[r][c]
			if cur != prev {
				mustRoad(g, prev, cur, cfg.FreeSpeed*1.2, cfg.FreeSpeed*1.2)
				prev = cur
			}
		}
	}
	return g
}

func mustRoad(g *Graph, a, b NodeID, speed, freeSpeed float64) {
	if err := g.AddRoad(a, b, speed, freeSpeed); err != nil {
		panic(err) // generation-internal invariant; endpoints always valid
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
