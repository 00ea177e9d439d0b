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
	"repro/internal/parallel"
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
// slot. Implementations may be stateful (BATS); fresh state is created per
// run via New.
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

// Request-collection telemetry on the default registry (the per-run
// Config.Telemetry registry is policy-agnostic; the collect path sits below
// the Policy interface, so its metrics live package-wide like
// internal/parallel's).
var (
	collectDuration   = telemetry.Default().Histogram("engine_collect_duration_seconds", nil)
	collectParallel   = telemetry.Default().Counter("engine_collect_parallel_total")
	collectSequential = telemetry.Default().Counter("engine_collect_sequential_total")
)

// collectParallelMin is the user count at which collectRequests fans the
// best-response evaluation across internal/parallel shards. Below it the
// goroutine fan-out costs more than the probes; a package variable so tests
// can force either path.
var collectParallelMin = 96

// collectRequests gathers this slot's update requests: every user whose best
// route set Δ_i is nonempty, with a proposed route chosen uniformly from
// Δ_i (Algorithm 1 line 14).
//
// For instances with at least collectParallelMin users the per-user
// best-response sets — the slot's dominant cost, embarrassingly parallel
// and RNG-free — are evaluated across worker shards first, each shard
// probing through its own core.Evaluator. The merge then walks users in
// index order and draws proposals from the stream exactly as the
// sequential path does, so the emitted requests (and all downstream run
// trajectories) are bit-identical either way.
func collectRequests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	span := telemetry.StartSpan(collectDuration)
	defer span.End()
	n := p.Instance().NumUsers()
	var deltas [][]int
	if n >= collectParallelMin {
		collectParallel.Inc()
		deltas = bestResponseSets(p)
	} else {
		collectSequential.Inc()
	}
	var reqs []Request
	for i := 0; i < n; i++ {
		u := core.UserID(i)
		var delta []int
		if deltas != nil {
			delta = deltas[i]
		} else {
			delta = p.BestResponseSet(u)
		}
		if len(delta) == 0 {
			continue
		}
		reqs = append(reqs, Request{User: u, Route: delta[s.Intn(len(delta))]})
	}
	if withMeta {
		// The B sets are packed back to back into arena chunks. A chunk
		// never regrows: a B that might not fit starts a new one, sized
		// for what the remaining B sets can need at most, so each B can be
		// cut from its chunk as soon as it is written.
		bound := func(r *Request) int { // |B_i| ≤ |L_cur| + |L_new|
			return len(p.Route(r.User).Tasks) + len(p.Instance().Users[r.User].Routes[r.Route].Tasks)
		}
		left := 0
		for j := range reqs {
			left += bound(&reqs[j])
		}
		var arena []int
		for j := range reqs {
			r := &reqs[j]
			r.Tau = p.Tau(r.User, r.Route)
			b := bound(r)
			if cap(arena)-len(arena) < b {
				arena = make([]int, 0, max(b, min(arenaChunk, left)))
			}
			left -= b
			start := len(arena)
			arena = p.AppendMoveTasks(arena, r.User, r.Route)
			r.B = arena[start:len(arena):len(arena)]
		}
	}
	return reqs
}

// arenaChunk is the size, in task IDs, of the chunks collectRequests packs
// B sets into: 32 KiB, the largest small-object size class, so chunks are
// recycled like ordinary small objects rather than as large spans.
const arenaChunk = 4096

// bestResponseSets evaluates Δ_i for every user across parallel shards.
// Shard w owns users w, w+shards, w+2·shards, …, so each output slot is
// written by exactly one goroutine and the result depends only on the
// profile state, never on scheduling. Each shard probes through a private
// core.Evaluator: probes are read-only on the profile and bit-identical to
// Profile.BestResponseSet.
func bestResponseSets(p *core.Profile) [][]int {
	n := p.Instance().NumUsers()
	out := make([][]int, n)
	shards := parallel.DefaultWorkers()
	if max := (n + 31) / 32; shards > max {
		shards = max // keep ≥32 users per shard
	}
	// Evaluators are made before the fan-out: the first one builds the
	// instance's overlap masks, outside the parallel section.
	evs := make([]*core.Evaluator, shards)
	for w := range evs {
		evs[w] = p.NewEvaluator()
	}
	// The shard body never errors; ForEach's error return is vacuous here.
	_ = parallel.ForEach(shards, shards, func(w int) error {
		ev := evs[w]
		for i := w; i < n; i += shards {
			out[i] = ev.BestResponseSet(core.UserID(i))
		}
		return nil
	})
	return out
}

// Requests returns the update requests the platform would collect from the
// current profile this slot (Algorithm 1 line 14 / Algorithm 2 line 4),
// without applying any of them. withMeta additionally fills each request's
// τ_i and B_i, as the PUU and BUAU policies require. Exported for
// benchmarks and external tooling; policies use the same path internally.
//
// The B slices of one call alias a per-call arena: they are packed back to
// back into shared chunks, each B a capacity-limited sub-slice, so
// appending to a B copies it out rather than overwriting the next
// request's tasks.
func Requests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	return collectRequests(p, s, withMeta)
}

// --- SUU: Single User Update (the DGRN configuration) ---

type suu struct{}

// NewSUU returns the Single User Update policy: the platform picks one
// requester uniformly at random and lets it apply its best response. This is
// the DGRN algorithm of §5.2.
func NewSUU() Policy { return suu{} }

func (suu) Name() string { return "DGRN" }

func (suu) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, false)
	if len(reqs) == 0 {
		return 0, nil
	}
	r := reqs[s.Intn(len(reqs))]
	p.SetChoice(r.User, r.Route)
	return len(reqs), []core.UserID{r.User}
}

// --- PUU: Parallel User Update (Algorithm 3; the MUUN configuration) ---

type puu struct{}

// NewPUU returns the Parallel User Update policy (Algorithm 3): requesters
// are sorted by δ_i = τ_i/|B_i| non-ascending and greedily admitted while
// their touched task sets B_i stay pairwise disjoint; all admitted users
// update concurrently in the same decision slot. This is the MUUN algorithm
// of §5.2.
func NewPUU() Policy { return puu{} }

func (puu) Name() string { return "MUUN" }

func (puu) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, true)
	if len(reqs) == 0 {
		return 0, nil
	}
	selected := SelectPUU(reqs)
	updated := make([]core.UserID, 0, len(selected))
	for _, r := range selected {
		p.SetChoice(r.User, r.Route)
		updated = append(updated, r.User)
	}
	return len(reqs), updated
}

// SelectPUU implements the greedy core of Algorithm 3 on a request set: sort
// by δ_i = τ_i/|B_i| non-ascending (a move touching no tasks interferes with
// nothing and has δ = +Inf, sorted first), then admit requests whose B sets
// do not intersect the union of already-admitted B sets. The sort is stable,
// so ties keep request (user) order and the selection is reproducible.
// Task IDs in B must be non-negative: admitted tasks are marked in a slice
// indexed by ID. Exported for direct testing of Theorem 3's guarantee.
func SelectPUU(reqs []Request) []Request {
	delta := make([]float64, len(reqs))
	maxTask := -1
	for i, r := range reqs {
		delta[i] = math.Inf(1)
		if len(r.B) > 0 {
			delta[i] = r.Tau / float64(len(r.B))
		}
		for _, k := range r.B {
			maxTask = max(maxTask, k)
		}
	}
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(delta[b], delta[a]) })
	taken := make([]bool, maxTask+1)
	var out []Request
admit:
	for _, i := range idx {
		r := reqs[i]
		for _, k := range r.B {
			if taken[k] {
				continue admit
			}
		}
		for _, k := range r.B {
			taken[k] = true
		}
		out = append(out, r)
	}
	return out
}

// --- BRUN: Better Response Update Navigation ---

type brun struct{}

// NewBRUN returns the BRUN baseline: a random requester applies a uniformly
// random *better* (not necessarily best) response.
func NewBRUN() Policy { return brun{} }

func (brun) Name() string { return "BRUN" }

func (brun) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	// Requesters are users with any better response.
	var users []core.UserID
	for i := 0; i < p.Instance().NumUsers(); i++ {
		if len(p.BetterResponses(core.UserID(i))) > 0 {
			users = append(users, core.UserID(i))
		}
	}
	if len(users) == 0 {
		return 0, nil
	}
	u := users[s.Intn(len(users))]
	better := p.BetterResponses(u)
	p.SetChoice(u, better[s.Intn(len(better))])
	return len(users), []core.UserID{u}
}

// --- BUAU: Best Update of All Users ---

type buau struct{}

// NewBUAU returns the BUAU baseline: the platform inspects all requesters
// and selects the single user whose best response maximizes the potential
// increase τ_i.
func NewBUAU() Policy { return buau{} }

func (buau) Name() string { return "BUAU" }

func (buau) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, true)
	if len(reqs) == 0 {
		return 0, nil
	}
	best := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Tau > reqs[best].Tau {
			best = i
		}
	}
	r := reqs[best]
	p.SetChoice(r.User, r.Route)
	return len(reqs), []core.UserID{r.User}
}

// --- BATS: Bayesian Asynchronous Task Selection (adapted from [5]) ---

type bats struct {
	next int
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
	requesters := 0
	for i := 0; i < n; i++ {
		if len(p.BestResponseSet(core.UserID(i))) > 0 {
			requesters++
		}
	}
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
