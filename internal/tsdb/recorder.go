package tsdb

import (
	"strings"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/internal/telemetry"
)

// Canonical slot-series names recorded from distributed.Observation. These
// are the convergence-curve series every run gets for free once a Recorder
// is attached: the potential trajectory (Theorem 2 ascent), per-slot
// contention, and slot-duration drift.
const (
	SeriesPotential     = "platform_potential"
	SeriesSlotRequests  = "platform_slot_requests"
	SeriesSlotContacted = "platform_slot_contacted"
	SeriesSlotGranted   = "platform_slot_granted"
	SeriesSlotMillis    = "platform_slot_duration_ms"
	SeriesUpdates       = "platform_updates_total"
)

// Recorder feeds a Store from the two sources a running platform already
// has: the Observation stream (one callback per decision slot) and the
// telemetry registry (captured on the flush cadence). It replaces the
// bespoke per-experiment convergence observers: attach the Observer, and
// the potential / granted / slot-duration series accumulate with retention
// instead of in ad-hoc slices.
type Recorder struct {
	st *Store

	potential *Series
	requests  *Series
	contacted *Series
	granted   *Series
	slotMS    *Series
	updates   *Series

	filter func(name string) bool

	mu       sync.Mutex
	prevCtr  map[string]uint64
	prevHist map[string]telemetry.HistogramSnapshot
}

// RecorderOption customizes NewRecorder.
type RecorderOption func(*Recorder)

// WithFilter selects which registry metrics the snapshot capture records
// (return true to keep). The default drops per-user labeled metrics —
// distributed_link_sent_total{user="3"} and friends — whose cardinality
// scales with M, and keeps everything else including per-shard labels.
func WithFilter(fn func(name string) bool) RecorderOption {
	return func(r *Recorder) { r.filter = fn }
}

// DefaultFilter is the registry capture filter described on WithFilter.
func DefaultFilter(name string) bool { return !strings.Contains(name, `user="`) }

// NewRecorder creates a recorder writing into st.
func NewRecorder(st *Store, opts ...RecorderOption) *Recorder {
	r := &Recorder{
		st:        st,
		potential: st.Series(SeriesPotential, KindGauge),
		requests:  st.Series(SeriesSlotRequests, KindGauge),
		contacted: st.Series(SeriesSlotContacted, KindGauge),
		granted:   st.Series(SeriesSlotGranted, KindGauge),
		slotMS:    st.Series(SeriesSlotMillis, KindGauge),
		updates:   st.Series(SeriesUpdates, KindCounter),
		filter:    DefaultFilter,
		prevCtr:   map[string]uint64{},
		prevHist:  map[string]telemetry.HistogramSnapshot{},
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store returns the recorder's backing store.
func (r *Recorder) Store() *Store { return r.st }

// Observer returns the per-slot callback to plug into
// distributed.PlatformConfig.Observer (chain it with the web server's
// observer when both are wired). Slot 0 is the initialization observation;
// it records the starting potential but no slot statistics.
func (r *Recorder) Observer() func(distributed.Observation) {
	return func(o distributed.Observation) {
		if o.PotentialValid {
			r.potential.Observe(o.Potential)
		}
		if o.Slot == 0 {
			return
		}
		r.requests.Observe(float64(o.Requests))
		r.contacted.Observe(float64(o.Contacted))
		r.granted.Observe(float64(o.Granted))
		r.slotMS.Observe(float64(o.Elapsed) / float64(time.Millisecond))
		if o.Granted > 0 {
			r.updates.Observe(float64(o.Granted))
		}
	}
}

// CaptureRegistry records one registry snapshot: counters as per-capture
// increments (so their series read as rates), gauges as sampled values,
// and histograms as per-capture quantile summaries — <name>_mean,
// <name>_p50, and <name>_p99 gauge series derived from the cumulative
// bucket deltas since the previous capture.
func (r *Recorder) CaptureRegistry(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range snap.Counters {
		if !r.filter(name) {
			continue
		}
		prev, seen := r.prevCtr[name]
		r.prevCtr[name] = v
		delta := v
		if seen && v >= prev {
			delta = v - prev
		}
		if delta > 0 || seen {
			r.st.Series(name, KindCounter).Observe(float64(delta))
		}
	}
	for name, v := range snap.Gauges {
		if !r.filter(name) {
			continue
		}
		r.st.Series(name, KindGauge).Observe(v)
	}
	for name, h := range snap.Histograms {
		if !r.filter(name) {
			continue
		}
		prev, seen := r.prevHist[name]
		r.prevHist[name] = h
		if !seen {
			prev = telemetry.HistogramSnapshot{}
		}
		d, ok := histDelta(h, prev)
		if !ok || d.Count == 0 {
			continue
		}
		r.st.Series(name+"_mean", KindGauge).Observe(d.Sum / float64(d.Count))
		r.st.Series(name+"_p50", KindGauge).Observe(histQuantile(d, 0.50))
		r.st.Series(name+"_p99", KindGauge).Observe(histQuantile(d, 0.99))
	}
}

// StartRegistryCapture captures reg on the given cadence until the
// returned stop function runs (which takes one final capture).
func (r *Recorder) StartRegistryCapture(reg *telemetry.Registry, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.CaptureRegistry(reg)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			r.CaptureRegistry(reg)
		})
	}
}

// histDelta subtracts two cumulative histogram snapshots. A shrinking
// count (registry swap) makes the delta meaningless; ok reports false.
func histDelta(cur, prev telemetry.HistogramSnapshot) (telemetry.HistogramSnapshot, bool) {
	if cur.Count < prev.Count {
		return telemetry.HistogramSnapshot{}, false
	}
	d := telemetry.HistogramSnapshot{Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum}
	d.Buckets = make([]telemetry.Bucket, len(cur.Buckets))
	for i, b := range cur.Buckets {
		d.Buckets[i] = b
		if i < len(prev.Buckets) {
			if b.Count < prev.Buckets[i].Count {
				return telemetry.HistogramSnapshot{}, false
			}
			d.Buckets[i].Count = b.Count - prev.Buckets[i].Count
		}
	}
	return d, true
}

// histQuantile estimates quantile q from a delta snapshot by linear
// interpolation inside the covering bucket (histogram_quantile-style).
// Observations beyond the last finite bound clamp to that bound.
func histQuantile(d telemetry.HistogramSnapshot, q float64) float64 {
	if d.Count == 0 || len(d.Buckets) == 0 {
		return 0
	}
	// Buckets stay cumulative through the delta: each Count is the number
	// of observations <= UpperBound in the capture window.
	target := q * float64(d.Count)
	lower := 0.0
	var prevCum uint64
	for _, b := range d.Buckets {
		inBucket := b.Count - prevCum
		if inBucket > 0 && float64(b.Count) >= target {
			frac := (target - float64(prevCum)) / float64(inBucket)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (b.UpperBound-lower)*frac
		}
		prevCum = b.Count
		lower = b.UpperBound
	}
	return d.Buckets[len(d.Buckets)-1].UpperBound
}
