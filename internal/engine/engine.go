// Package engine simulates the decision-slot protocol of Algorithms 1 and 2:
// in each slot the platform collects update requests from users whose best
// route set is nonempty, selects a subset of them via an update policy (SUU,
// PUU/Algorithm 3, or one of the §5.2 baselines), and lets the selected
// users update their route decisions. The run terminates when no user
// requests an update — a Nash equilibrium by Definition 2.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Request is one user's update request in a decision slot: the user, its
// chosen new route (from its best route set unless the policy says
// otherwise), the potential gain τ_i, and the touched task set B_i.
type Request struct {
	User  core.UserID
	Route int // proposed new route index
	Tau   float64
	B     []int // task IDs touched by the move (as ints for compactness)
}

// Policy selects, from the slot's requesters, the users that update this
// slot. Implementations are stateful — each keeps its run's request
// collector, and BATS its schedule — so a fresh one is made per run by a
// PolicyFactory.
type Policy interface {
	// Name returns the paper's name for the algorithm (DGRN, MUUN, ...).
	Name() string
	// SelectAndUpdate inspects the profile, applies this slot's updates in
	// place, and reports how many users requested an update and which users
	// actually moved. A slot with zero requesters means convergence.
	SelectAndUpdate(p *core.Profile, s *rng.Stream) (requesters int, updated []core.UserID)
}

// PolicyFactory creates a fresh policy instance for one run.
type PolicyFactory func() Policy

// SlotRecord captures the state after one decision slot.
type SlotRecord struct {
	Slot        int
	Potential   float64
	TotalProfit float64
	Updated     []core.UserID
	// Profits is per-user profit after the slot; populated only when
	// Config.RecordProfits is set.
	Profits []float64
	// Selected is the number of users that updated in this slot (Table 3).
	Selected int
}

// Result of one engine run.
type Result struct {
	Policy    string
	Slots     int // decision slots consumed before the termination slot
	Converged bool
	Profile   *core.Profile
	History   []SlotRecord
	// TotalUpdates counts individual user decision updates across the run.
	TotalUpdates int
}

// Config controls a run.
type Config struct {
	// MaxSlots caps the run; 0 means DefaultMaxSlots. A run that hits the
	// cap reports Converged=false.
	MaxSlots int
	// RecordHistory stores a SlotRecord per slot (including slot 0, the
	// initial state).
	RecordHistory bool
	// RecordProfits additionally stores per-user profits in each record.
	RecordProfits bool
	// Telemetry, when non-nil, receives per-slot engine metrics: slot
	// duration, requester and update counts, and — when RecordHistory also
	// holds, so the potential is already being computed — the potential and
	// its per-slot delta. Nil keeps the simulation loop free of any
	// instrumentation cost.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one flight-recorder span per decision
	// slot (requesters, updates, and the slot's ΔΦ), feeding the tracer's
	// Nash-stall detector. Sampling is the tracer's: unsampled slots cost a
	// few nanoseconds and no allocation.
	Tracer *tracing.Tracer
}

// engineMetrics holds the pre-resolved handles for one instrumented run.
type engineMetrics struct {
	slotDuration   *telemetry.Histogram
	slots          *telemetry.Counter
	requesters     *telemetry.Counter
	updates        *telemetry.Counter
	potential      *telemetry.Gauge
	potentialDelta *telemetry.Gauge
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		slotDuration:   reg.Histogram("engine_slot_duration_seconds", nil),
		slots:          reg.Counter("engine_slots_total"),
		requesters:     reg.Counter("engine_requesters_total"),
		updates:        reg.Counter("engine_updates_total"),
		potential:      reg.Gauge("engine_potential"),
		potentialDelta: reg.Gauge("engine_potential_delta"),
	}
}

// DefaultMaxSlots bounds runaway runs; Theorem 4 guarantees finite
// convergence, so hitting this indicates a bug or a pathological Eps issue.
const DefaultMaxSlots = 100000

// Run executes Algorithm 1 + Algorithm 2 on a fresh random initial profile
// (Algorithm 1 line 3) drawn from the stream.
func Run(in *core.Instance, factory PolicyFactory, s *rng.Stream, cfg Config) Result {
	p := core.RandomProfile(in, s.Child())
	return RunFrom(p, factory, s.Child(), cfg)
}

// RunFrom executes the protocol starting from the given profile, mutating it
// in place.
func RunFrom(p *core.Profile, factory PolicyFactory, s *rng.Stream, cfg Config) Result {
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = DefaultMaxSlots
	}
	policy := factory()
	res := Result{Policy: policy.Name(), Profile: p}
	var tel *engineMetrics
	if cfg.Telemetry != nil {
		tel = newEngineMetrics(cfg.Telemetry)
	}
	// prevPot tracks the last recorded potential for the delta gauge; the
	// potential itself is only computed when history recording already pays
	// for it.
	prevPot := math.NaN()
	record := func(slot int, updated []core.UserID) {
		if !cfg.RecordHistory {
			return
		}
		rec := SlotRecord{
			Slot:        slot,
			Potential:   p.Potential(),
			TotalProfit: p.TotalProfit(),
			Updated:     updated,
			Selected:    len(updated),
		}
		if cfg.RecordProfits {
			rec.Profits = make([]float64, p.Instance().NumUsers())
			for i := range rec.Profits {
				rec.Profits[i] = p.Profit(core.UserID(i))
			}
		}
		res.History = append(res.History, rec)
		if tel != nil {
			tel.potential.Set(rec.Potential)
			if !math.IsNaN(prevPot) {
				tel.potentialDelta.Set(rec.Potential - prevPot)
			}
			prevPot = rec.Potential
		}
	}
	record(0, nil)
	// tracePot is the potential at the last traced slot boundary, so each
	// sampled slot span carries the ΔΦ accumulated since the previous
	// sampled one (at the default sample rate of 1, exactly its own ΔΦ).
	var tracePot float64
	if cfg.Tracer.Enabled() {
		tracePot = p.Potential()
	}
	for slot := 1; slot <= maxSlots; slot++ {
		tspan := cfg.Tracer.StartSpan(cfg.Tracer.StartTrace(), tracing.KindSlot, -1, slot)
		var span telemetry.Span
		if tel != nil {
			span = telemetry.StartSpan(tel.slotDuration)
		}
		requesters, updated := policy.SelectAndUpdate(p, s)
		if tel != nil {
			span.End()
			tel.requesters.Add(uint64(requesters))
		}
		if requesters == 0 {
			// Algorithm 2 line 11: no requests → send termination message.
			tspan.Finish()
			res.Converged = true
			return res
		}
		if tel != nil {
			tel.slots.Inc()
			tel.updates.Add(uint64(len(updated)))
		}
		if tspan.Recording() {
			pot := p.Potential()
			tspan.FinishSlot(requesters, len(updated), pot-tracePot)
			tracePot = pot
		} else {
			tspan.Finish()
		}
		res.Slots = slot
		res.TotalUpdates += len(updated)
		record(slot, updated)
	}
	return res
}

// Requests returns the update requests the platform would collect from the
// current profile this slot (Algorithm 1 line 14 / Algorithm 2 line 4),
// without applying any of them. withMeta additionally fills each request's
// τ_i and B_i, as the PUU and BUAU policies require. Exported for
// benchmarks and external tooling; it is a fresh collector's first
// collection, which probes every user, so the policies' incremental
// collections return exactly what it would.
//
// Each B is a capacity-limited slice of its own, so appending to it copies.
func Requests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	return new(collector).collect(p, s, withMeta)
}

// collecting is a policy that collects the slot's requests through its
// run's collector and lets its rule choose and apply this slot's updates.
type collecting struct {
	name string
	meta bool // the rule reads τ_i and B_i
	rule func(p *core.Profile, s *rng.Stream, reqs []Request) []core.UserID
	c    collector
}

func (x *collecting) Name() string { return x.name }

func (x *collecting) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := x.c.collect(p, s, x.meta)
	if len(reqs) == 0 {
		return 0, nil
	}
	return len(reqs), x.rule(p, s, reqs)
}

// --- SUU: Single User Update (the DGRN configuration) ---

// NewSUU returns the Single User Update policy: the platform picks one
// requester uniformly at random and lets it apply its best response. This is
// the DGRN algorithm of §5.2.
func NewSUU() Policy {
	return &collecting{name: "DGRN", rule: func(p *core.Profile, s *rng.Stream, reqs []Request) []core.UserID {
		r := reqs[s.Intn(len(reqs))]
		p.SetChoice(r.User, r.Route)
		return []core.UserID{r.User}
	}}
}

// --- PUU: Parallel User Update (Algorithm 3; the MUUN configuration) ---

// NewPUU returns the Parallel User Update policy (Algorithm 3): requesters
// are sorted by δ_i = τ_i/|B_i| non-ascending and greedily admitted while
// their touched task sets B_i stay pairwise disjoint; all admitted users
// update concurrently in the same decision slot. This is the MUUN algorithm
// of §5.2.
func NewPUU() Policy {
	return &collecting{name: "MUUN", meta: true, rule: func(p *core.Profile, _ *rng.Stream, reqs []Request) []core.UserID {
		selected := SelectPUU(reqs)
		updated := make([]core.UserID, 0, len(selected))
		for _, r := range selected {
			p.SetChoice(r.User, r.Route)
			updated = append(updated, r.User)
		}
		return updated
	}}
}

// SelectPUU implements the greedy core of Algorithm 3 on a request set: sort
// by δ_i = τ_i/|B_i| non-ascending (a move touching no tasks interferes with
// nothing and has δ = +Inf, sorted first), then admit requests whose B sets
// do not intersect the union of already-admitted B sets. Ties in δ keep
// request (user) order — the sort key is (δ, request index) — so the
// selection is reproducible.
// Task IDs in B must be non-negative: admitted tasks are marked in a slice
// indexed by ID. Exported for direct testing of Theorem 3's guarantee.
func SelectPUU(reqs []Request) []Request {
	type key struct {
		delta float64
		i     int
	}
	keys := make([]key, len(reqs))
	for i, r := range reqs {
		keys[i] = key{math.Inf(1), i}
		if len(r.B) > 0 {
			keys[i].delta = r.Tau / float64(len(r.B))
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(b.delta, a.delta); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	var taken []bool // grown on demand: most B sets are never marked
	var out []Request
admit:
	for _, key := range keys {
		r := reqs[key.i]
		for _, k := range r.B {
			if k < len(taken) && taken[k] {
				continue admit
			}
		}
		for _, k := range r.B {
			if k >= len(taken) {
				taken = append(taken, make([]bool, k+1-len(taken))...)
			}
			taken[k] = true
		}
		out = append(out, r)
	}
	return out
}

// --- BRUN: Better Response Update Navigation ---

type brun struct {
	c collector
}

// NewBRUN returns the BRUN baseline: a random requester applies a uniformly
// random *better* (not necessarily best) response.
func NewBRUN() Policy { return &brun{} }

func (*brun) Name() string { return "BRUN" }

func (b *brun) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	// Requesters are users with any better response: exactly those whose
	// best response set is nonempty.
	users := b.c.requesters(p)
	if len(users) == 0 {
		return 0, nil
	}
	u := users[s.Intn(len(users))]
	better := p.BetterResponses(u)
	p.SetChoice(u, better[s.Intn(len(better))])
	return len(users), []core.UserID{u}
}

// --- BUAU: Best Update of All Users ---

// NewBUAU returns the BUAU baseline: the platform inspects all requesters
// and selects the single user whose best response maximizes the potential
// increase τ_i.
func NewBUAU() Policy {
	return &collecting{name: "BUAU", meta: true, rule: func(p *core.Profile, _ *rng.Stream, reqs []Request) []core.UserID {
		best := 0
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Tau > reqs[best].Tau {
				best = i
			}
		}
		r := reqs[best]
		p.SetChoice(r.User, r.Route)
		return []core.UserID{r.User}
	}}
}

// --- BATS: Bayesian Asynchronous Task Selection (adapted from [5]) ---

type bats struct {
	next int
	c    collector
}

// NewBATS returns the BATS baseline adapted to the route-navigation setting:
// users re-optimize one at a time in a fixed cyclic order. The scheduled
// user adopts its best route even when that brings no strict improvement, so
// decision slots are consumed on users that cannot improve — the behaviour
// §5.3.1 cites for BATS's slow convergence.
func NewBATS() Policy { return &bats{} }

func (*bats) Name() string { return "BATS" }

func (b *bats) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	n := p.Instance().NumUsers()
	requesters := len(b.c.requesters(p))
	if requesters == 0 {
		return 0, nil
	}
	u := core.UserID(b.next % n)
	b.next++
	delta := p.BestResponseSet(u)
	if len(delta) == 0 {
		// Slot consumed with no movement: the scheduled user re-selects its
		// current best route.
		return requesters, nil
	}
	p.SetChoice(u, delta[s.Intn(len(delta))])
	return requesters, []core.UserID{u}
}

// --- RRN: Random Route Navigation ---

// RunRRN returns the RRN baseline result: every user picks a uniformly
// random route; no decision slots are consumed and no equilibrium is sought.
func RunRRN(in *core.Instance, s *rng.Stream) Result {
	p := core.RandomProfile(in, s)
	return Result{Policy: "RRN", Slots: 0, Converged: true, Profile: p}
}

// FactoryByName maps the paper's algorithm names to policy factories.
func FactoryByName(name string) (PolicyFactory, error) {
	switch name {
	case "DGRN":
		return NewSUU, nil
	case "MUUN":
		return NewPUU, nil
	case "BRUN":
		return NewBRUN, nil
	case "BUAU":
		return NewBUAU, nil
	case "BATS":
		return NewBATS, nil
	}
	return nil, fmt.Errorf("engine: unknown policy %q", name)
}
