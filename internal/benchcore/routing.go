package benchcore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// This file is the routing-engine counterpart of the incremental-evaluation
// suite: it measures the goal-directed (ALT) engine and the parallel
// scenario builder against the frozen reference implementations they are
// differentially tested against, and serializes BENCH_routing.json.

// benchGraph is one cached benchmark road network plus a fixed OD workload.
type benchGraph struct {
	g   *roadnet.Graph
	ods [][2]roadnet.NodeID
}

var (
	benchGraphsMu sync.Mutex
	benchGraphs   = map[int]*benchGraph{}
)

// routingGraphSizes are the |V| targets of the query ladder: metropolitan
// grids of side²≈|V| with jittered blocks, heterogeneous congestion, and
// arterial/expressway tiers (real street networks are not uniform meshes,
// and navigation realism depends on the road hierarchy at scale). Queries
// run under ByTime — vehicular navigation routes by travel time.
var routingGraphSizes = []int{10000, 100000, 1000000}

// altRouteGraphSizes are the |V| targets of the alternative-routes pair;
// the recommendation path is ~k× a point query, so its ladder stops at 100k.
var altRouteGraphSizes = []int{10000, 100000}

// routingWeight is the edge weight of the query ladder.
const routingWeight = roadnet.ByTime

// graphFor builds (once) a metropolitan tiered grid with approximately v
// nodes and a fixed random OD workload over it.
func graphFor(v int) *benchGraph {
	benchGraphsMu.Lock()
	defer benchGraphsMu.Unlock()
	if bg, ok := benchGraphs[v]; ok {
		return bg
	}
	side := 1
	for side*side < v {
		side++
	}
	cfg := roadnet.DefaultCity(roadnet.GridCity)
	cfg.Rows, cfg.Cols = side, side
	cfg.ArterialEvery, cfg.ArterialSpeedup = 16, 3
	s := rng.New(uint64(7000 + v))
	g := roadnet.GenerateCity(cfg, s.Child())
	bg := &benchGraph{g: g}
	n := g.NumNodes()
	for i := 0; i < 64; i++ {
		bg.ods = append(bg.ods, [2]roadnet.NodeID{
			roadnet.NodeID(s.Intn(n)), roadnet.NodeID(s.Intn(n)),
		})
	}
	benchGraphs[v] = bg
	return bg
}

// ShortestPathEngine measures steady-state point-to-point queries on the
// ALT engine: warm per-worker scratch, reused path buffer, landmark tables
// prebuilt. This is the configuration the zero-allocs gate applies to.
func ShortestPathEngine(v int) func(b *testing.B) {
	return func(b *testing.B) {
		bg := graphFor(v)
		bg.g.EnsureLandmarks(routingWeight)
		sc := bg.g.NewSearchScratch()
		buf := make([]roadnet.EdgeID, 0, 4*len(bg.ods[0]))
		// Warm pass over the whole workload: sizes the scratch arrays, heap
		// backing store, and path buffer to their steady state.
		for _, od := range bg.ods {
			var err error
			if buf, _, err = sc.AppendShortestPath(buf[:0], od[0], od[1], routingWeight); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od := bg.ods[i%len(bg.ods)]
			buf, _, _ = sc.AppendShortestPath(buf[:0], od[0], od[1], routingWeight)
		}
	}
}

// ShortestPathReference measures the frozen baseline on the same workload:
// one-shot Dijkstra, fresh O(|V|) label arrays per query.
func ShortestPathReference(v int) func(b *testing.B) {
	return func(b *testing.B) {
		bg := graphFor(v)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od := bg.ods[i%len(bg.ods)]
			_, _ = roadnet.ReferenceShortestPath(bg.g, od[0], od[1], routingWeight)
		}
	}
}

// AlternativeRoutesEngine measures one full route recommendation (k=5,
// penalized diversification) on the engine.
func AlternativeRoutesEngine(v int) func(b *testing.B) {
	return func(b *testing.B) {
		bg := graphFor(v)
		bg.g.EnsureLandmarks(roadnet.ByLength)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od := bg.ods[i%len(bg.ods)]
			if _, err := bg.g.AlternativeRoutes(od[0], od[1], 5, experiments.RoutePenalty); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// AlternativeRoutesReference measures the frozen recommendation path:
// reference Dijkstras, per-call reverse-edge map, string-key dedup.
func AlternativeRoutesReference(v int) func(b *testing.B) {
	return func(b *testing.B) {
		bg := graphFor(v)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od := bg.ods[i%len(bg.ods)]
			if _, err := roadnet.ReferenceAlternativeRoutes(bg.g, od[0], od[1], 5, experiments.RoutePenalty); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Scenario build: sequential baseline vs phase-split parallel ---

var (
	scenarioDSOnce sync.Once
	scenarioDS     *trace.Dataset
	scenarioSpec   trace.Spec
)

// scenarioDataset generates (once) the Shanghai-like dataset all scenario
// benchmarks draw worlds from. Each iteration wraps it in a fresh World so
// builds run with cold route caches.
func scenarioDataset() (trace.Spec, *trace.Dataset) {
	scenarioDSOnce.Do(func() {
		scenarioSpec = trace.Shanghai()
		var err error
		scenarioDS, err = trace.Generate(scenarioSpec, 7)
		if err != nil {
			panic(err)
		}
	})
	return scenarioSpec, scenarioDS
}

const scenarioTasks = 200 // the paper's task-count regime

// ScenarioBuildSeq measures the frozen sequential builder at m users:
// reference routing, per-user coverage queries, cold caches per iteration.
func ScenarioBuildSeq(m int) func(b *testing.B) {
	return func(b *testing.B) {
		spec, ds := scenarioDataset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := experiments.WorldFromDataset(spec, ds)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.BuildScenarioBaseline(experiments.ScenarioConfig{Users: m, Tasks: scenarioTasks}, rng.New(42)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ScenarioBuildPar measures the phase-split builder at m users: engine
// routing through the singleflight route cache, per-OD coverage templates,
// parallel fan-out, cold caches per iteration. Produces scenarios
// bit-identical to ScenarioBuildSeq (enforced by the parity tests).
func ScenarioBuildPar(m int) func(b *testing.B) {
	return func(b *testing.B) {
		spec, ds := scenarioDataset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := experiments.WorldFromDataset(spec, ds)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.BuildScenario(experiments.ScenarioConfig{Users: m, Tasks: scenarioTasks}, rng.New(42)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Machine-readable report (BENCH_routing.json) ---

// RoutingEntry is one recorded routing benchmark measurement. Size is |V|
// for query benchmarks and the user count M for scenario builds.
type RoutingEntry struct {
	Name          string  `json:"name"`
	Size          int     `json:"size"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
}

// RoutingSpeedup records an engine-vs-reference ratio measured in one run.
type RoutingSpeedup struct {
	Metric     string  `json:"metric"`
	Size       int     `json:"size"`
	EngineNs   float64 `json:"engine_ns_per_op"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// RoutingReport is the BENCH_routing.json document.
type RoutingReport struct {
	Schema        string           `json:"schema"`
	GeneratedUnix int64            `json:"generated_unix"`
	GoVersion     string           `json:"go_version"`
	GOOS          string           `json:"goos"`
	GOARCH        string           `json:"goarch"`
	NumCPU        int              `json:"num_cpu"`
	GoMaxProcs    int              `json:"gomaxprocs"`
	BenchTime     string           `json:"bench_time"`
	GraphSizes    []int            `json:"graph_sizes"`
	ScenarioMs    []int            `json:"scenario_m_values"`
	Entries       []RoutingEntry   `json:"benchmarks"`
	Speedups      []RoutingSpeedup `json:"speedups"`
}

// routingPair is one engine/baseline benchmark family.
type routingPair struct {
	metric   string
	queries  bool // report queries/sec
	sizes    []int
	engine   func(int) func(*testing.B)
	baseline func(int) func(*testing.B)
}

// ScenarioBuildMs are the user counts the scenario-build pair sweeps.
var ScenarioBuildMs = []int{50, 500, 5000}

func routingSuite() []routingPair {
	return []routingPair{
		{metric: "ShortestPath", queries: true, sizes: routingGraphSizes,
			engine: ShortestPathEngine, baseline: ShortestPathReference},
		{metric: "AlternativeRoutes", queries: true, sizes: altRouteGraphSizes,
			engine: AlternativeRoutesEngine, baseline: AlternativeRoutesReference},
		{metric: "ScenarioBuild", sizes: ScenarioBuildMs,
			engine: ScenarioBuildPar, baseline: ScenarioBuildSeq},
	}
}

// RunRoutingSuite executes the routing suite under testing.Benchmark and
// assembles the report. Callers must have invoked testing.Init (and set
// test.benchtime if desired) beforehand.
func RunRoutingSuite(benchTime string) RoutingReport {
	rep := RoutingReport{
		Schema:        "repro/bench-routing/v3",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		BenchTime:     benchTime,
		GraphSizes:    routingGraphSizes,
		ScenarioMs:    ScenarioBuildMs,
	}
	record := func(name string, size int, queries bool, body func(*testing.B)) RoutingEntry {
		r := testing.Benchmark(body)
		e := RoutingEntry{
			Name:        fmt.Sprintf("%s/%d", name, size),
			Size:        size,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if queries && e.NsPerOp > 0 {
			e.QueriesPerSec = 1e9 / e.NsPerOp
		}
		rep.Entries = append(rep.Entries, e)
		return e
	}
	for _, p := range routingSuite() {
		for _, size := range p.sizes {
			eng := record(p.metric+"/engine", size, p.queries, p.engine(size))
			base := record(p.metric+"/baseline", size, p.queries, p.baseline(size))
			if eng.NsPerOp > 0 {
				rep.Speedups = append(rep.Speedups, RoutingSpeedup{
					Metric:     p.metric,
					Size:       size,
					EngineNs:   eng.NsPerOp,
					BaselineNs: base.NsPerOp,
					Speedup:    base.NsPerOp / eng.NsPerOp,
				})
			}
		}
	}
	return rep
}

// SpeedupFor returns the recorded engine-vs-baseline speedup for a metric
// at the given size, or 0 when the pair was not measured.
func (r *RoutingReport) SpeedupFor(metric string, size int) float64 {
	for _, s := range r.Speedups {
		if s.Metric == metric && s.Size == size {
			return s.Speedup
		}
	}
	return 0
}

// EntryFor returns the entry with the exact name, or nil.
func (r *RoutingReport) EntryFor(name string) *RoutingEntry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}
