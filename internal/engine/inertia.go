package engine

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// NewInertialParallel returns the inertial simultaneous-update policy
// (IPAR), the stochastic repair of UPAR (NewUnsafeParallel): every
// requester updates concurrently, but each independently stays put with
// probability stayProb ("inertia"). Simultaneous-move games with inertia
// escape the deterministic 2-cycles that pure simultaneous best response
// falls into (see unsafe_test.go): whenever exactly one of a colliding pair
// moves, the potential strictly increases, so the dynamics almost surely
// reach a Nash equilibrium — without any platform-side coordination at all,
// trading PUU's per-slot guarantee for a fully decentralized rule.
// stayProb in (0,1) is each requester's independent probability of
// skipping its update this slot; 0.5 is the customary choice.
func NewInertialParallel(stayProb float64) PolicyFactory {
	if stayProb <= 0 || stayProb >= 1 {
		stayProb = 0.5
	}
	return func() Policy {
		return &collecting{name: "IPAR", rule: func(p *core.Profile, s *rng.Stream, reqs []Request) []core.UserID {
			// Decide who moves BEFORE applying anything: simultaneous play.
			var movers []Request
			for _, r := range reqs {
				if !s.Bool(stayProb) {
					movers = append(movers, r)
				}
			}
			updated := make([]core.UserID, 0, len(movers))
			for _, r := range movers {
				p.SetChoice(r.User, r.Route)
				updated = append(updated, r.User)
			}
			return updated
		}}
	}
}
