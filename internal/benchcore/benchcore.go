// Package benchcore is the shared benchmark suite behind the repo's
// machine-readable performance baseline (BENCH_incremental.json). It
// measures the incremental game-state evaluation layer of internal/core
// against the Naive differential-testing oracle — the same pairing the
// correctness tests replay — so every recorded speedup is relative to an
// implementation whose results the cached path provably matches.
//
// The functions here return ordinary benchmark bodies so they can run both
// as `go test -bench` benchmarks (bench_test.go registers them) and under
// testing.Benchmark from cmd/benchcore, which serializes the results to
// JSON for future PRs to regress against.
package benchcore

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// game is one cached benchmark world: an M-user, M-task instance with a
// fixed random initial profile far from equilibrium.
type game struct {
	in      *core.Instance
	choices []int
}

var (
	gamesMu sync.Mutex
	games   = map[int]*game{}
)

// gameFor builds (once) and returns the benchmark world for M users.
// Instances scale tasks with users, so M=5000 exercises the regime the
// ROADMAP targets rather than a toy task set.
func gameFor(m int) *game {
	gamesMu.Lock()
	defer gamesMu.Unlock()
	if g, ok := games[m]; ok {
		return g
	}
	s := rng.New(uint64(9000 + m))
	in := core.RandomInstance(core.DefaultRandomConfig(m, m), s.Child())
	p := core.RandomProfile(in, s.Child())
	g := &game{in: in, choices: p.Choices()}
	games[m] = g
	return g
}

func profileFor(g *game) *core.Profile {
	p, err := core.NewProfile(g.in, g.choices)
	if err != nil {
		panic(err)
	}
	return p
}

func naiveFor(g *game) *core.Naive {
	o, err := core.NewNaive(g.in, g.choices)
	if err != nil {
		panic(err)
	}
	return o
}

// --- Benchmark bodies (cached vs naive-oracle pairs) ---

// NashGapCached measures Profile.NashGap: every probe is an O(|Δroutes|)
// ProfitDeltaIf over maintained counts.
func NashGapCached(m int) func(b *testing.B) {
	return func(b *testing.B) {
		p := profileFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.NashGap()
		}
	}
}

// NashGapNaive measures the oracle's NashGap: every probe recomputes the
// participant counts from scratch.
func NashGapNaive(m int) func(b *testing.B) {
	return func(b *testing.B) {
		o := naiveFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = o.NashGap()
		}
	}
}

// SlotCached measures one platform decision slot's evaluation work on the
// cached path: collect every user's update request (sharded best-response
// evaluation with τ_i and B_i) and run Algorithm 3's PUU selection. The
// profile is not mutated, so every iteration measures the same stationary
// workload.
func SlotCached(m int) func(b *testing.B) {
	return func(b *testing.B) {
		p := profileFor(gameFor(m))
		s := rng.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs := engine.Requests(p, s, true)
			if len(engine.SelectPUU(reqs)) == 0 {
				b.Fatal("no selectable requests")
			}
		}
	}
}

// SlotNaive measures the same slot against the oracle: per-user best
// responses, τ_i, and B_i all evaluated from scratch, then the identical
// PUU selection.
func SlotNaive(m int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gameFor(m)
		o := naiveFor(g)
		s := rng.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs := naiveRequests(g.in, o, s)
			if len(engine.SelectPUU(reqs)) == 0 {
				b.Fatal("no selectable requests")
			}
		}
	}
}

// naiveRequests is the oracle-backed counterpart of engine.Requests with
// metadata: deliberately simple, like everything on the naive path.
func naiveRequests(in *core.Instance, o *core.Naive, s *rng.Stream) []engine.Request {
	var reqs []engine.Request
	for i := 0; i < in.NumUsers(); i++ {
		u := core.UserID(i)
		delta := o.BestResponseSet(u)
		if len(delta) == 0 {
			continue
		}
		route := delta[s.Intn(len(delta))]
		tau := (o.ProfitIf(u, route) - o.Profit(u)) / in.Users[i].Alpha
		seen := map[int]bool{}
		var bset []int
		for _, k := range in.Users[i].Routes[o.Choice(u)].Tasks {
			if !seen[int(k)] {
				seen[int(k)] = true
				bset = append(bset, int(k))
			}
		}
		for _, k := range in.Users[i].Routes[route].Tasks {
			if !seen[int(k)] {
				seen[int(k)] = true
				bset = append(bset, int(k))
			}
		}
		reqs = append(reqs, engine.Request{User: u, Route: route, Tau: tau, B: bset})
	}
	return reqs
}

// RunPUU measures whole PUU runs (engine.RunFrom with engine.NewPUU) to
// equilibrium from the world's fixed initial profile. Unlike the stationary
// Slot row, the profile moves every slot, so this is the trajectory the
// policy's incremental request collection is built for. It reports ns/slot
// alongside ns/op (one op is one whole run).
func RunPUU(m int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gameFor(m)
		slots := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := profileFor(g)
			b.StartTimer()
			res := engine.RunFrom(p, engine.NewPUU, rng.New(1), engine.Config{})
			if !res.Converged {
				b.Fatal("PUU did not converge")
			}
			slots += res.Slots
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
	}
}

// PotentialCached measures the O(1) cached Φ read.
func PotentialCached(m int) func(b *testing.B) {
	return func(b *testing.B) {
		p := profileFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.Potential()
		}
	}
}

// PotentialNaive measures the from-scratch Φ evaluation (Eq. 8 as written).
func PotentialNaive(m int) func(b *testing.B) {
	return func(b *testing.B) {
		o := naiveFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = o.Potential()
		}
	}
}

// TotalProfitCached measures the O(1) cached Σ_i P_i read.
func TotalProfitCached(m int) func(b *testing.B) {
	return func(b *testing.B) {
		p := profileFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.TotalProfit()
		}
	}
}

// TotalProfitNaive measures the from-scratch Σ_i P_i evaluation.
func TotalProfitNaive(m int) func(b *testing.B) {
	return func(b *testing.B) {
		o := naiveFor(gameFor(m))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = o.TotalProfit()
		}
	}
}

// SetChoiceCached measures move application with full cache maintenance:
// counts, alpha-sums, per-user cost terms, and both compensated
// accumulators, all on the move's symmetric difference.
func SetChoiceCached(m int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gameFor(m)
		p := profileFor(g)
		s := rng.New(2)
		n := g.in.NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := core.UserID(i % n)
			p.SetChoice(u, s.Intn(len(g.in.Users[u].Routes)))
		}
	}
}

// --- Machine-readable suite (BENCH_incremental.json) ---

// Entry is one recorded benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	M           int     `json:"m"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	NsPerSlot   float64 `json:"ns_per_slot,omitempty"`
	SlotsPerSec float64 `json:"slots_per_sec,omitempty"`
}

// Speedup records a cached-vs-naive ratio measured in the same run.
type Speedup struct {
	Metric   string  `json:"metric"`
	M        int     `json:"m"`
	CachedNs float64 `json:"cached_ns_per_op"`
	NaiveNs  float64 `json:"naive_ns_per_op"`
	Speedup  float64 `json:"speedup"`
}

// Report is the BENCH_incremental.json document.
type Report struct {
	Schema        string    `json:"schema"`
	GeneratedUnix int64     `json:"generated_unix"`
	GoVersion     string    `json:"go_version"`
	GOOS          string    `json:"goos"`
	GOARCH        string    `json:"goarch"`
	NumCPU        int       `json:"num_cpu"`
	GoMaxProcs    int       `json:"gomaxprocs"`
	BenchTime     string    `json:"bench_time"`
	Ms            []int     `json:"m_values"`
	NaiveMaxM     int       `json:"naive_max_m"`
	Entries       []Entry   `json:"benchmarks"`
	Speedups      []Speedup `json:"speedups"`
}

// pair is one cached/naive benchmark family of the suite.
type pair struct {
	metric string
	slots  bool // report slots/sec for this family
	cached func(int) func(*testing.B)
	naive  func(int) func(*testing.B) // nil: cached-only family
}

func suite() []pair {
	return []pair{
		{metric: "NashGap", cached: NashGapCached, naive: NashGapNaive},
		{metric: "Slot", slots: true, cached: SlotCached, naive: SlotNaive},
		{metric: "Potential", cached: PotentialCached, naive: PotentialNaive},
		{metric: "TotalProfit", cached: TotalProfitCached, naive: TotalProfitNaive},
		{metric: "SetChoice", cached: SetChoiceCached},
	}
}

// RunSuite executes the whole suite under testing.Benchmark and assembles
// the report. Naive-oracle runs are capped at naiveMaxM users: beyond that
// the O(M²·L̄) recomputation makes a single iteration take seconds while
// measuring nothing new. Callers must have invoked testing.Init (and set
// test.benchtime if desired) beforehand.
func RunSuite(ms []int, naiveMaxM int, benchTime string) Report {
	rep := Report{
		Schema:        "repro/bench-incremental/v1",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		BenchTime:     benchTime,
		Ms:            ms,
		NaiveMaxM:     naiveMaxM,
	}
	record := func(name string, m int, slots bool, body func(*testing.B)) Entry {
		r := testing.Benchmark(body)
		e := Entry{
			Name:        fmt.Sprintf("%s/M%d", name, m),
			M:           m,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if ns, ok := r.Extra["ns/slot"]; ok && ns > 0 {
			e.NsPerSlot, e.SlotsPerSec = ns, 1e9/ns
		} else if slots && e.NsPerOp > 0 {
			e.SlotsPerSec = 1e9 / e.NsPerOp
		}
		rep.Entries = append(rep.Entries, e)
		return e
	}
	for _, p := range suite() {
		for _, m := range ms {
			cached := record(p.metric+"/cached", m, p.slots, p.cached(m))
			if p.naive == nil || m > naiveMaxM {
				continue
			}
			naive := record(p.metric+"/naive", m, p.slots, p.naive(m))
			if cached.NsPerOp > 0 {
				rep.Speedups = append(rep.Speedups, Speedup{
					Metric:   p.metric,
					M:        m,
					CachedNs: cached.NsPerOp,
					NaiveNs:  naive.NsPerOp,
					Speedup:  naive.NsPerOp / cached.NsPerOp,
				})
			}
		}
	}
	// Trajectory rows: whole runs at the sizes where reuse shows.
	for _, m := range []int{500, 5000} {
		if slices.Contains(ms, m) {
			record("Run/PUU", m, true, RunPUU(m))
		}
	}
	return rep
}

// SpeedupFor returns the recorded cached-vs-naive speedup for a metric at
// M users, or 0 when the pair was not measured.
func (r *Report) SpeedupFor(metric string, m int) float64 {
	for _, s := range r.Speedups {
		if s.Metric == metric && s.M == m {
			return s.Speedup
		}
	}
	return 0
}
