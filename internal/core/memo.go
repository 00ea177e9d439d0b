package core

import (
	"math"
	"sync"
)

// shareMemo is the memoized share table backing the incremental evaluation
// layer: per-task (a_k, µ_k) in flat arrays plus a ln-table ln[q] = ln(q)
// for every participant count a profile can reach (q ≤ |U|). Share lookups
// become two multiply-adds and a division — no math.Log on any hot path —
// while staying bit-identical to task.Share, which computes
// (a_k + µ_k·ln(q))/q with the exact same operation order.
//
// The memo also carries the instance's route-overlap masks, built once on
// first use. Apart from that one-time fill it is immutable and therefore
// shared by a profile, all its clones, and any number of concurrent
// Evaluators.
type shareMemo struct {
	a  []float64 // a_k per task
	mu []float64 // µ_k per task
	ln []float64 // ln[q] = math.Log(q); index 0 unused, ln[1] = 0

	overlapOnce sync.Once
	overlap     *overlapMasks
}

// overlapMasks returns the instance's route-overlap masks, building them on
// the first call. Concurrent first callers block until the one build is
// done; every later call is an atomic load.
func (m *shareMemo) overlapMasks(in *Instance) *overlapMasks {
	m.overlapOnce.Do(func() { m.overlap = newOverlapMasks(in) })
	return m.overlap
}

func newShareMemo(in *Instance) *shareMemo {
	m := &shareMemo{
		a:  make([]float64, len(in.Tasks)),
		mu: make([]float64, len(in.Tasks)),
		ln: make([]float64, len(in.Users)+1),
	}
	for k, tk := range in.Tasks {
		m.a[k], m.mu[k] = tk.A, tk.Mu
	}
	for q := 2; q < len(m.ln); q++ {
		m.ln[q] = math.Log(float64(q))
	}
	return m
}

// share returns w_k(n)/n, bit-identical to Instance.Tasks[k].Share(n). The
// table covers n ≤ |U|; larger counts (possible only on instances that
// bypass Validate with duplicate task IDs on one route) fall back to
// math.Log.
func (m *shareMemo) share(k, n int) float64 {
	if n <= 0 {
		return 0
	}
	var ln float64
	if n < len(m.ln) {
		ln = m.ln[n]
	} else {
		ln = math.Log(float64(n))
	}
	return (m.a[k] + m.mu[k]*ln) / float64(n)
}

// kahan is a compensated (Kahan) accumulator. The incremental profile
// caches maintain Φ and ΣP_i as long streams of signed deltas; plain
// float64 addition would accumulate O(moves·ulp) drift, while compensation
// keeps the error near a few ulps of the running value between rebases.
type kahan struct {
	sum, c float64
}

func (a *kahan) add(x float64) {
	y := x - a.c
	t := a.sum + y
	a.c = (t - a.sum) - y
	a.sum = t
}

func (a *kahan) value() float64 { return a.sum }
