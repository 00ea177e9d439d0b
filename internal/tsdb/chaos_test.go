package tsdb

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/rng"
)

// TestChaosPotentialSeriesNonDecreasing drives the full fault-injected
// protocol with a Recorder attached and asserts the retained potential
// series tells the Theorem-2 story: outside fault windows the potential
// never decreases, and the sync protocol opens no fault windows at the
// game layer — transient transport faults are retried and deduplicated
// below the slot protocol — so here the recorded trajectory must be
// monotone end to end, bucket by bucket.
func TestChaosPotentialSeriesNonDecreasing(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(10, 14), rng.New(11))

	// A deterministic clock advancing 100ms per observation spreads the
	// run across base buckets so cross-bucket monotonicity is exercised,
	// not just the within-bucket fold.
	clk := &fakeClock{sec: 1000}
	ticks := 0
	now := func() time.Time {
		ticks++
		return time.Unix(clk.sec+int64(ticks)/10, 0)
	}
	st, err := Open(WithTiers(testTiers), WithNow(now))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st)

	stats, err := distributed.RunChaos(in, distributed.ChaosOptions{
		Platform: distributed.PlatformConfig{
			Policy:           distributed.Deterministic,
			Observer:         rec.Observer(),
			ObservePotential: true,
		},
		Seed:            77,
		AgentSeedBase:   100,
		Deterministic:   true,
		AgentProfile:    distributed.StandardFaultProfile,
		PlatformProfile: distributed.StandardFaultProfile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("chaos run did not converge")
	}

	res, err := st.Query(SeriesPotential, 0, 1<<40, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no potential points recorded")
	}
	const tol = 1e-9
	var total uint64
	for i, p := range res.Points {
		total += p.Count
		// Within a monotone bucket the fold degenerates: first = min,
		// last = max.
		if p.Last < p.Max-tol || p.Min > p.Last+tol {
			t.Errorf("bucket %d not internally monotone: %+v", i, p)
		}
		if i > 0 {
			prev := res.Points[i-1]
			if p.Min < prev.Max-tol {
				t.Errorf("potential decreased across buckets %d->%d: max %g then min %g",
					i-1, i, prev.Max, p.Min)
			}
		}
	}
	if int(total) != len(stats.Potentials) {
		t.Errorf("series holds %d observations, chaos recorded %d", total, len(stats.Potentials))
	}
	if last := res.Points[len(res.Points)-1].Last; last != stats.Potentials[len(stats.Potentials)-1] {
		t.Errorf("final recorded potential %g != chaos trace %g", last, stats.Potentials[len(stats.Potentials)-1])
	}
}
