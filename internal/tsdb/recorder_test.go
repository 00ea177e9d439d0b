package tsdb

import (
	"math"
	"testing"
	"time"

	"repro/internal/distributed"
	"repro/internal/telemetry"
)

func TestRecorderObserver(t *testing.T) {
	clk := &fakeClock{sec: 100}
	st := testStore(t, clk)
	rec := NewRecorder(st)
	obs := rec.Observer()

	obs(distributed.Observation{Slot: 0, Potential: 1.5, PotentialValid: true, Elapsed: time.Second})
	clk.Set(101)
	obs(distributed.Observation{Slot: 1, Requests: 4, Contacted: 9, Granted: 2, Potential: 2.5, PotentialValid: true, Elapsed: 8 * time.Millisecond})
	clk.Set(102)
	obs(distributed.Observation{Slot: 2, Requests: 3, Contacted: 5, Granted: 1, Potential: 3.25, PotentialValid: true, Elapsed: 6 * time.Millisecond})
	clk.Set(103)

	pot, err := st.Query(SeriesPotential, 0, 200, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pot.Points) != 3 || pot.Points[0].Last != 1.5 || pot.Points[2].Last != 3.25 {
		t.Fatalf("potential series = %+v", pot.Points)
	}
	gr, err := st.Query(SeriesSlotGranted, 0, 200, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 (initialization) records no slot statistics.
	if len(gr.Points) != 2 || gr.Points[0].Last != 2 || gr.Points[1].Last != 1 {
		t.Fatalf("granted series = %+v", gr.Points)
	}
	co, err := st.Query(SeriesSlotContacted, 0, 200, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Points) != 2 || co.Points[0].Last != 9 || co.Points[1].Last != 5 {
		t.Fatalf("contacted series = %+v", co.Points)
	}
	ms, err := st.Query(SeriesSlotMillis, 0, 200, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Points) != 2 || ms.Points[0].Last != 8 {
		t.Fatalf("slot-duration series = %+v", ms.Points)
	}
	up, err := st.Query(SeriesUpdates, 0, 200, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Points) != 1 || up.Points[0].Sum != 3 {
		t.Fatalf("updates series = %+v", up.Points)
	}
}

func TestRecorderRegistryCapture(t *testing.T) {
	clk := &fakeClock{sec: 10}
	st := testStore(t, clk)
	rec := NewRecorder(st)
	reg := telemetry.NewRegistry()

	ctr := reg.Counter("jobs_total")
	gauge := reg.Gauge("depth")
	skipped := reg.Counter(`distributed_link_sent_total{user="3"}`)

	ctr.Add(5)
	gauge.Set(2.5)
	skipped.Add(100)
	rec.CaptureRegistry(reg)
	clk.Set(11)
	ctr.Add(7)
	gauge.Set(1.25)
	rec.CaptureRegistry(reg)
	clk.Set(12)

	res, err := st.Query("jobs_total", 0, 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First capture seeds the baseline with the full value; the second
	// records the 7-increment delta.
	if len(res.Points) != 1 || res.Points[0].Sum != 12 {
		t.Fatalf("counter series = %+v", res.Points)
	}
	g, err := st.Query("depth", 0, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != 2 || g.Points[1].Last != 1.25 {
		t.Fatalf("gauge series = %+v", g.Points)
	}
	if st.lookup(`distributed_link_sent_total{user="3"}`) != nil {
		t.Error("per-user metric not filtered")
	}
}

func TestRecorderHistogramQuantiles(t *testing.T) {
	clk := &fakeClock{sec: 50}
	st := testStore(t, clk)
	rec := NewRecorder(st)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})

	rec.CaptureRegistry(reg) // empty baseline
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	clk.Set(51)
	rec.CaptureRegistry(reg)

	p50, err := st.Query("lat_p50", 0, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p50.Points) != 1 {
		t.Fatalf("p50 series = %+v", p50.Points)
	}
	// 100 observations uniform in (1,2]: the interpolated median is 1.5.
	if got := p50.Points[0].Last; math.Abs(got-1.5) > 0.01 {
		t.Errorf("p50 = %v, want ~1.5", got)
	}
	mean, err := st.Query("lat_mean", 0, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := mean.Points[0].Last; math.Abs(got-1.5) > 1e-9 {
		t.Errorf("mean = %v, want 1.5", got)
	}
	p99, err := st.Query("lat_p99", 0, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p99.Points[0].Last; got < 1 || got > 2 {
		t.Errorf("p99 = %v, want within (1,2]", got)
	}
}

func TestHistQuantileClamp(t *testing.T) {
	d := telemetry.HistogramSnapshot{
		Count: 10, Sum: 100,
		// Cumulative: 5 at <=1, 5 beyond the last bound (+Inf).
		Buckets: []telemetry.Bucket{{UpperBound: 1, Count: 5}, {UpperBound: 2, Count: 5}},
	}
	if got := histQuantile(d, 0.99); got != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", got)
	}
}
