package benchcore

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/rng"
)

// This file is the federation suite (BENCH_federation.json): it runs the
// in-process federation — K ServeNode shards meshed over loopback TCP, one
// agent goroutine per user on channel transports — at several shard counts
// K over the same M-user instance and records slot throughput.
//
// The recorded metric is aggregate shard-slot throughput: per-shard slot
// commits per second summed across the federation, over each run's whole
// wall clock (init handshake included). One federated round commits K
// shard slots, each serving M/K users, so the ideal scaling is ×K — a
// shard slot is K times cheaper than a global slot. The CI floor (≥2× at
// K=4 vs K=1) therefore bounds the federation's coordination tax:
// partitioning, the request broadcast, and the K·(K−1) gossip batches per
// barrier may together consume at most half the ideal scaling. The
// suite runs a fixed number of rounds far from equilibrium (deterministic
// agents, PUU selection), so every shard count measures the identical
// workload and a no-convergence exit is the expected outcome, not a
// failure.

// FederationEntry is one recorded federation measurement at shard count K.
type FederationEntry struct {
	Shards int `json:"shards"`
	// Rounds is the number of federated rounds the run committed;
	// ShardSlots = Rounds × Shards is what the throughput counts.
	Rounds     int  `json:"rounds"`
	ShardSlots int  `json:"shard_slots"`
	Converged  bool `json:"converged"`
	// WallSeconds is the run's wall time, init handshake included;
	// SlotsPerSec = ShardSlots / WallSeconds.
	WallSeconds float64 `json:"wall_seconds"`
	SlotsPerSec float64 `json:"slots_per_sec"`
	// GossipBatches counts peer delta batches ingested, summed over
	// shards.
	GossipBatches int `json:"gossip_batches"`
	MessagesSent  int `json:"messages_sent"`
	MessagesRecv  int `json:"messages_received"`
	TotalUpdates  int `json:"total_updates"`
}

// FederationSpeedup records the throughput ratio of one shard count
// against the K=1 baseline from the same run.
type FederationSpeedup struct {
	Shards     int     `json:"shards"`
	Speedup    float64 `json:"speedup"`
	BaseSlots  float64 `json:"k1_slots_per_sec"`
	ShardSlots float64 `json:"slots_per_sec"`
}

// FederationReport is the BENCH_federation.json document.
type FederationReport struct {
	Schema        string              `json:"schema"`
	GeneratedUnix int64               `json:"generated_unix"`
	GoVersion     string              `json:"go_version"`
	GOOS          string              `json:"goos"`
	GOARCH        string              `json:"goarch"`
	NumCPU        int                 `json:"num_cpu"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	M             int                 `json:"m"`
	Tasks         int                 `json:"tasks"`
	Rounds        int                 `json:"rounds"`
	Entries       []FederationEntry   `json:"benchmarks"`
	Speedups      []FederationSpeedup `json:"speedups"`
}

// RunFederationSuite runs the federation benchmark: the same M-user world
// at every shard count in ks, bounded to rounds slots. ks must include 1
// for the speedup ratios to be recorded.
func RunFederationSuite(m, rounds int, ks []int) (FederationReport, error) {
	rep := FederationReport{
		Schema:        "repro/bench-federation/v2",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		M:             m,
		Rounds:        rounds,
	}
	s := rng.New(uint64(7100 + m))
	in := core.RandomInstance(core.DefaultRandomConfig(m, m), s.Child())
	rep.Tasks = in.NumTasks()
	for _, k := range ks {
		start := time.Now()
		stats, err := distributed.RunFederatedInProcess(in, distributed.FederatedOptions{
			Shards: k,
			Platform: distributed.PlatformConfig{
				Policy:   distributed.PUU,
				Seed:     11,
				MaxSlots: rounds,
			},
		}, distributed.InProcessOptions{AgentSeedBase: 500, Deterministic: true})
		wall := time.Since(start).Seconds()
		if err != nil && !errors.Is(err, distributed.ErrNoConvergence) {
			return rep, fmt.Errorf("federation bench K=%d: %w", k, err)
		}
		e := FederationEntry{
			Shards:       k,
			Rounds:       stats.Slots,
			ShardSlots:   stats.Slots * k,
			Converged:    stats.Converged,
			WallSeconds:  wall,
			MessagesSent: stats.MessagesSent,
			MessagesRecv: stats.MessagesReceived,
			TotalUpdates: stats.TotalUpdates,
		}
		for _, ns := range stats.Nodes {
			e.GossipBatches += ns.GossipBatches
		}
		if wall > 0 {
			e.SlotsPerSec = float64(e.ShardSlots) / wall
		}
		rep.Entries = append(rep.Entries, e)
	}
	base := rep.SlotsPerSecAt(1)
	if base > 0 {
		for _, e := range rep.Entries {
			if e.Shards == 1 {
				continue
			}
			rep.Speedups = append(rep.Speedups, FederationSpeedup{
				Shards:     e.Shards,
				Speedup:    e.SlotsPerSec / base,
				BaseSlots:  base,
				ShardSlots: e.SlotsPerSec,
			})
		}
	}
	return rep, nil
}

// SlotsPerSecAt returns the recorded throughput at shard count k, or 0
// when that shard count was not measured.
func (r *FederationReport) SlotsPerSecAt(k int) float64 {
	for _, e := range r.Entries {
		if e.Shards == k {
			return e.SlotsPerSec
		}
	}
	return 0
}

// SpeedupAt returns the recorded K=k-vs-K=1 throughput ratio, 0 if absent.
func (r *FederationReport) SpeedupAt(k int) float64 {
	for _, s := range r.Speedups {
		if s.Shards == k {
			return s.Speedup
		}
	}
	return 0
}

// CheckFederationSpeedup returns an error unless the K=4 federation
// reached min times the K=1 slot throughput.
func (r *FederationReport) CheckFederationSpeedup(min float64) error {
	got := r.SpeedupAt(4)
	if got == 0 {
		return fmt.Errorf("missing gated speedup K=4 vs K=1 (run with -fed-shards including 1 and 4)")
	}
	if got < min {
		return fmt.Errorf("federated slot throughput at K=4 is %.2fx the K=1 baseline, below the %.1fx floor", got, min)
	}
	return nil
}
