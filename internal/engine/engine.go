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

// puu runs PUU's slots on its collector's bounded path.
type puu struct {
	c collector
}

// NewPUU returns the Parallel User Update policy (Algorithm 3): requesters
// are sorted by δ_i = τ_i/|B_i| non-ascending and greedily admitted while
// their touched task sets B_i stay pairwise disjoint; all admitted users
// update concurrently in the same decision slot. This is the MUUN algorithm
// of §5.2. Its slots run on the collector's bounded path, which admits
// SelectPUU's winners from the exact requests.
func NewPUU() Policy { return &puu{} }

func (*puu) Name() string { return "MUUN" }

func (x *puu) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	n, winners := x.c.selectPUU(p, s)
	return n, apply(p, winners)
}

// apply moves every selected user to its proposed route and returns the
// users in selection order.
func apply(p *core.Profile, selected []Request) []core.UserID {
	updated := make([]core.UserID, 0, len(selected))
	for _, r := range selected {
		p.SetChoice(r.User, r.Route)
		updated = append(updated, r.User)
	}
	return updated
}

// SelectPUU implements the greedy core of Algorithm 3 on a request set:
// take requests by δ_i = τ_i/|B_i| non-ascending (a move touching no tasks
// interferes with nothing and has δ = +Inf, taken first), admitting those
// whose B sets do not intersect the union of already-admitted B sets. Ties
// in δ keep request (user) order and a NaN δ comes last, so the selection
// is reproducible: it equals a stable sort by non-ascending δ followed by
// an admission pass.
//
// It is the case of admitPUU in which every δ is known. Task IDs in B must
// be non-negative: admitted tasks are marked in a slice indexed by ID.
// Exported for direct testing of Theorem 3's guarantee.
func SelectPUU(reqs []Request) []Request {
	keys := make([]puuKey, len(reqs))
	for j := range reqs {
		keys[j] = puuKey{reqs[j].delta(), int32(j), true}
	}
	return admitPUU(reqs, keys, nil)
}

// delta is the request's δ = τ/|B|, +Inf for a move that touches no task.
func (r *Request) delta() float64 {
	if len(r.B) == 0 {
		return math.Inf(1)
	}
	return r.Tau / float64(len(r.B))
}

// puuKey is request i's place in the selection. An exact key holds its δ;
// an inexact one only an upper bound d ≥ δ in cmp.Compare order (NaN
// lowest), until it is refined.
type puuKey struct {
	d     float64
	i     int32
	exact bool
}

// outranks orders exact keys as the stable sort does: a greater δ first,
// equal δ by index, NaN, below every number as cmp.Compare orders it, last.
func (a puuKey) outranks(b puuKey) bool {
	c := cmp.Compare(a.d, b.d)
	return c > 0 || c == 0 && a.i < b.i
}

// admitPUU is Algorithm 3's admission over keys, some of which may know
// their δ only as an upper bound; refine(i) returns request i's exact δ
// and is called at most once per inexact key. The result is SelectPUU's on
// the exact δ values.
//
// A slot admits few requests, so admitPUU walks arg-maxes instead of
// sorting: it admits the (δ, lowest index) arg-max of the still-admissible
// requests, and one scan drops every request whose B meets the admitted
// tasks and finds the next arg-max. The arg-max is always exact: the scan
// finds the exact top and collects the inexact keys whose bound could tie
// or beat it, and those are refined, highest bound first, only while one
// still could. While each admission at least halves the admissible set the
// walk costs under two scans in all; once one does not, the rest goes to
// sortAdmit, so a slot of many small, disjoint B sets costs one scan more
// than a sort.
func admitPUU(reqs []Request, keys []puuKey, refine func(i int) float64) []Request {
	w := puuWalk{reqs: reqs, refine: refine}
	return w.walk(keys)
}

// puuWalk is admitPUU's state: the admitted set and the inexact keys a
// scan found that could tie or beat its exact top.
type puuWalk struct {
	reqs   []Request
	refine func(i int) float64
	cand   []int
	set    admitSet
}

// walk is admitPUU's arg-max walk over live, which it compacts in place.
func (w *puuWalk) walk(live []puuKey) []Request {
	next := -1 // live: still admissible, in request order
	for j := range live {
		next = w.consider(live, j, next)
	}
	for next = w.settle(live, next); next >= 0; next = w.settle(live, next) {
		w.set.admit(w.reqs[live[next].i])
		admitted, n := next, 0
		next = -1
		for j, key := range live {
			if j == admitted || w.set.meets(w.reqs[key.i].B) {
				continue
			}
			live[n] = key
			next = w.consider(live, n, next)
			n++
		}
		halved := n <= len(live)/2
		live = live[:n]
		if !halved {
			return w.sortAdmit(live)
		}
	}
	return w.set.out
}

// consider folds live[j] into a scan in request order whose exact top so
// far is live[top] (-1: none yet) and returns the new top: an exact key
// takes over with a greater δ (on a tie the top's lower index wins), and an
// inexact key whose bound could tie or beat the top becomes a candidate.
func (w *puuWalk) consider(live []puuKey, j, top int) int {
	c := 1
	if top >= 0 {
		c = cmp.Compare(live[j].d, live[top].d)
	}
	switch {
	case c < 0 || c == 0 && live[j].exact:
		return top
	case live[j].exact:
		return j
	}
	w.cand = append(w.cand, j)
	return top
}

// settle refines the scan's candidates, highest bound first, while one
// could still tie or beat the exact top, and returns the arg-max of live.
func (w *puuWalk) settle(live []puuKey, top int) int {
	if top >= 0 { // drop the candidates the scan's final top already beats
		w.cand = slices.DeleteFunc(w.cand, func(j int) bool { return cmp.Compare(live[j].d, live[top].d) < 0 })
	}
	slices.SortFunc(w.cand, func(a, b int) int { return cmp.Compare(live[b].d, live[a].d) })
	for _, j := range w.cand {
		k := &live[j]
		if top >= 0 && cmp.Compare(k.d, live[top].d) < 0 {
			break
		}
		w.exact(k)
		if top < 0 || k.outranks(live[top]) {
			top = j
		}
	}
	w.cand = w.cand[:0]
	return top
}

// sortAdmit admits the rest of live in one pass over the keys sorted by
// bound — larger d first; at equal d an inexact key, which may tie, before
// an exact one; then by index. An exact key reached is the best left, and
// an inexact one still admissible when reached is refined and waits in
// pending until no key left could outrank it. A key that meets the
// admitted tasks stays inadmissible, so it is dropped unrefined.
func (w *puuWalk) sortAdmit(live []puuKey) []Request {
	slices.SortFunc(live, func(a, b puuKey) int {
		if c := cmp.Compare(b.d, a.d); c != 0 {
			return c
		}
		if a.exact != b.exact {
			if a.exact {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.i, b.i)
	})
	var pending []puuKey // refined keys, worst first
	for _, k := range live {
		for len(pending) > 0 && pending[len(pending)-1].before(k) {
			w.admitFree(pending[len(pending)-1])
			pending = pending[:len(pending)-1]
		}
		switch {
		case k.exact:
			w.admitFree(k)
		case !w.set.meets(w.reqs[k.i].B):
			w.exact(&k)
			at, _ := slices.BinarySearchFunc(pending, k, func(a, b puuKey) int {
				if a.outranks(b) {
					return 1
				}
				return -1
			})
			pending = slices.Insert(pending, at, k)
		}
	}
	for n := len(pending); n > 0; n-- {
		w.admitFree(pending[n-1])
	}
	return w.set.out
}

// before reports whether the exact key p must be admitted or dropped
// before key k of sortAdmit's order is reached: p outranks the exact k, or
// exceeds the inexact k's bound, which a tie could still beat.
func (p puuKey) before(k puuKey) bool {
	if k.exact {
		return p.outranks(k)
	}
	return cmp.Compare(p.d, k.d) > 0
}

// admitFree admits k's request unless its B meets the admitted tasks.
func (w *puuWalk) admitFree(k puuKey) {
	if r := w.reqs[k.i]; !w.set.meets(r.B) {
		w.set.admit(r)
	}
}

// exact refines the inexact key k to its exact δ. A δ above the bound
// would mean the walk may have passed k over, so it panics.
func (w *puuWalk) exact(k *puuKey) {
	d := w.refine(int(k.i))
	if cmp.Compare(d, k.d) > 0 {
		panic(fmt.Sprintf("engine: request %d has δ = %v above its bound %v", k.i, d, k.d))
	}
	k.d, k.exact = d, true
}

// admitSet is SelectPUU's admitted requests and the tasks they touch.
type admitSet struct {
	taken []bool // grown on demand: most B sets are never marked
	out   []Request
}

// meets reports whether B shares a task with an admitted request.
func (s *admitSet) meets(b []int) bool {
	for _, k := range b {
		if k < len(s.taken) && s.taken[k] {
			return true
		}
	}
	return false
}

func (s *admitSet) admit(r Request) {
	for _, k := range r.B {
		if k >= len(s.taken) {
			s.taken = append(s.taken, make([]bool, k+1-len(s.taken))...)
		}
		s.taken[k] = true
	}
	s.out = append(s.out, r)
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
	users := b.c.requesters(p, false)
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
	requesters := len(b.c.requesters(p, false))
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
