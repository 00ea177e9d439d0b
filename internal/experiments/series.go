package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/tsdb"
)

// This file captures convergence curves through the time-series store
// (internal/tsdb) instead of the bespoke append-a-float64 observers the
// drivers used to hand-roll: one Recorder per run, a deterministic clock
// mapping decision slots onto series time, and the downsampled potential
// trajectory read back with a range query. EXPERIMENTS.md ("Capturing a
// convergence curve") shows the same capture against a live platformd.

// CurveOptions configures CaptureConvergence.
type CurveOptions struct {
	// Policy selects the platform's winner policy (default Deterministic,
	// so a curve is reproducible from its seed alone).
	Policy distributed.SelectionPolicy
	// AgentSeedBase seeds agent i with AgentSeedBase+i (default 1).
	AgentSeedBase uint64
	// SlotsPerSecond maps decision slots onto series time: how many slot
	// observations share one 1-second base bucket (default 10). Lower
	// values stretch the curve across more buckets.
	SlotsPerSecond int
	// Tiers overrides the store's retention ladder (default
	// tsdb.DefaultTiers).
	Tiers []tsdb.Tier
}

// Curve is one captured convergence run.
type Curve struct {
	// Store holds every series the run produced (potential, slot
	// requests/grants, slot duration), queryable at any tier.
	Store *tsdb.Store
	// Stats is the platform's run outcome.
	Stats distributed.RunStats
	// Points is the potential trajectory at base (1s) resolution: the
	// per-bucket min/max/last of Φ as the protocol climbs to the
	// equilibrium.
	Points []tsdb.Point
}

// CaptureConvergence runs the full distributed protocol in-process and
// records its observation stream into a fresh time-series store. The
// store uses a deterministic clock driven by the observation count, so
// equal instances and seeds yield bit-identical curves.
func CaptureConvergence(in *core.Instance, opts CurveOptions) (*Curve, error) {
	if opts.Policy == "" {
		opts.Policy = distributed.Deterministic
	}
	if opts.AgentSeedBase == 0 {
		opts.AgentSeedBase = 1
	}
	if opts.SlotsPerSecond <= 0 {
		opts.SlotsPerSecond = 10
	}
	stOpts := []tsdb.Option{}
	if opts.Tiers != nil {
		stOpts = append(stOpts, tsdb.WithTiers(opts.Tiers))
	}
	ticks := 0
	stOpts = append(stOpts, tsdb.WithNow(func() time.Time {
		return time.Unix(int64(ticks), 0)
	}))
	st, err := tsdb.Open(stOpts...)
	if err != nil {
		return nil, err
	}
	rec := tsdb.NewRecorder(st)
	obs := rec.Observer()

	stats, err := distributed.RunInProcess(in, distributed.InProcessOptions{
		Platform: distributed.PlatformConfig{
			Policy:           opts.Policy,
			ObservePotential: true,
			Observer: func(o distributed.Observation) {
				// The clock advances one second per SlotsPerSecond
				// observations, before recording, so bucket alignment
				// is a pure function of the observation index.
				ticks = (o.Slot + 1) / opts.SlotsPerSecond
				obs(o)
			},
		},
		AgentSeedBase: opts.AgentSeedBase,
		Deterministic: true,
	})
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil { // seal the final bucket
		return nil, err
	}
	res, err := st.Query(tsdb.SeriesPotential, 0, int64(ticks), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: no potential curve recorded: %w", err)
	}
	return &Curve{Store: st, Stats: stats.RunStats, Points: res.Points}, nil
}
