package engine

import (
	"math"

	"repro/internal/core"
	"repro/internal/rng"
)

// NewUnsafeParallel returns the no-disjointness parallel update policy
// (UPAR), the ablation of Algorithm 3's disjointness constraint: every
// requester updates concurrently in the same slot, each computing its best
// response against the same (now stale) participant counts. Because
// interfering users can all pile onto the same task, a slot can DECREASE
// the potential function — the property PUU's disjoint batches are designed
// to preserve. The policy therefore does not inherit the finite improvement
// property; runs are only guaranteed to stop at MaxSlots. It exists to
// demonstrate, in tests and the ablation benchmarks, why Algorithm 3
// restricts concurrent updates to users whose B sets do not intersect.
func NewUnsafeParallel() Policy {
	return &collecting{name: "UPAR", rule: func(p *core.Profile, _ *rng.Stream, reqs []Request) []core.UserID {
		updated := make([]core.UserID, 0, len(reqs))
		// All moves are applied against the pre-slot counts: compute first,
		// apply after, exactly like simultaneous play.
		for _, r := range reqs {
			updated = append(updated, r.User)
		}
		for _, r := range reqs {
			p.SetChoice(r.User, r.Route)
		}
		return updated
	}}
}

// PotentialDropped reports whether any slot of the recorded history
// decreased the potential by more than tol — the failure mode unsafe
// parallelism introduces and PUU provably avoids.
func PotentialDropped(history []SlotRecord, tol float64) bool {
	for i := 1; i < len(history); i++ {
		if history[i].Potential < history[i-1].Potential-tol {
			return true
		}
	}
	return false
}

// MaxPotentialDrop returns the largest single-slot potential decrease in
// the history (0 when the potential is monotone).
func MaxPotentialDrop(history []SlotRecord) float64 {
	drop := 0.0
	for i := 1; i < len(history); i++ {
		if d := history[i-1].Potential - history[i].Potential; d > drop {
			drop = d
		}
	}
	return math.Max(drop, 0)
}
