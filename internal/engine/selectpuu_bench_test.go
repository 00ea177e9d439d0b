package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
)

// BenchmarkSelectPUU times Algorithm 3's selection alone on one slot's
// requests: many-winner slots of the Table-2 random instances benchcore
// uses (M users over M tasks; at M=500, 72 of 267 requests are admitted),
// and a few-winner slot of the Shanghai road scenario (M=3000, K=800: 7 of
// 1600 admitted), the first slot of the road-puu-engine workload.
func BenchmarkSelectPUU(b *testing.B) {
	for _, m := range []int{500, 5000} {
		s := rng.New(uint64(9000 + m))
		in := core.RandomInstance(core.DefaultRandomConfig(m, m), s.Child())
		p := core.RandomProfile(in, s.Child())
		benchSelect(b, fmt.Sprintf("random/M%d", m), engine.Requests(p, rng.New(1), true))
	}
	ds, err := trace.Generate(trace.Shanghai(), 1)
	if err != nil {
		b.Fatal(err)
	}
	w, err := experiments.WorldFromDataset(trace.Shanghai(), ds)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1).ChildN(0)
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: 3000, Tasks: 800}, s.Child())
	if err != nil {
		b.Fatal(err)
	}
	p := core.RandomProfile(sc.Instance, s.Child())
	benchSelect(b, "road/M3000", engine.Requests(p, s.Child(), true))
}

func benchSelect(b *testing.B, name string, reqs []engine.Request) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(engine.SelectPUU(reqs)) == 0 {
				b.Fatal("no winners")
			}
		}
		b.ReportMetric(float64(len(reqs)), "requests")
		b.ReportMetric(float64(len(engine.SelectPUU(reqs))), "winners")
	})
}
