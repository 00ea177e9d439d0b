package distributed

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// SelectionPolicy names the platform's user-update selection rule.
type SelectionPolicy string

// Platform selection policies.
const (
	// SUU grants one uniformly random requester per slot (§4.2).
	SUU SelectionPolicy = "SUU"
	// PUU grants a greedy disjoint batch per Algorithm 3.
	PUU SelectionPolicy = "PUU"
	// Deterministic grants the lowest-ID requester; used by equivalence
	// tests against a sequential reference run.
	Deterministic SelectionPolicy = "DET"
)

// ErrNoConvergence reports a run that exhausted its slot budget before
// reaching equilibrium. Callers that bound a run deliberately (benchmarks
// measuring fixed slot counts) match it with errors.Is.
var ErrNoConvergence = errors.New("no convergence within slot budget")

// Observation is one per-slot report delivered to the Observer hook. The
// struct form (rather than positional arguments) keeps the hook extensible:
// new fields can be added without breaking existing observers.
type Observation struct {
	// Slot is the decision slot the observation closes (0 = initialization).
	Slot int
	// Requests is the number of update requests received this slot.
	Requests int
	// Granted is the number of granted updates this slot.
	Granted int
	// GrantedUsers lists the users whose updates were granted, in grant
	// order. Empty for slot 0 and convergence observations.
	GrantedUsers []int
	// Choices is a copy of every user's current route index.
	Choices []int
	// Elapsed is the wall time of the slot (for slot 0, of the whole
	// initialization phase).
	Elapsed time.Duration
	// Potential is the weighted potential Φ of the current profile;
	// populated only when PotentialValid is set (see
	// PlatformConfig.ObservePotential).
	Potential      float64
	PotentialValid bool
}

// PlatformConfig configures a platform run. It remains the configuration
// carrier for the runner option structs (InProcessOptions, ChaosOptions);
// direct construction should use New with functional options, which
// accepts a whole PlatformConfig via WithConfig.
type PlatformConfig struct {
	Policy   SelectionPolicy
	MaxSlots int // 0 = engine.DefaultMaxSlots
	Seed     uint64
	// Observer, when non-nil, is invoked after initialization (slot 0) and
	// after every decision slot with that slot's Observation. Used by the
	// HTTP monitoring endpoint and the chaos harness.
	Observer func(Observation)
	// ObservePotential computes the weighted potential Φ for every
	// observation. It costs one profile evaluation per slot, so it is off
	// by default for large instances.
	ObservePotential bool
	// Telemetry selects the metrics registry for slot histograms and
	// per-link traffic counters; nil means telemetry.Default().
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records the run into the distributed tracer's
	// flight recorder: one trace per decision slot (stamped onto outgoing
	// messages and echoed back by the agents), per-move ΔP_i/ΔΦ events
	// computed on an incremental core.Profile, and transport spans per
	// link. nil disables tracing at zero cost.
	Tracer *tracing.Tracer
}

// RunStats summarizes a completed distributed run.
type RunStats struct {
	Slots        int
	Converged    bool
	Choices      []int
	TotalUpdates int
	// RequestsPerSlot and SelectedPerSlot record per-slot contention and
	// batch sizes (SelectedPerSlot feeds Table 3).
	RequestsPerSlot []int
	SelectedPerSlot []int
	// MessagesSent and MessagesReceived count the platform-side traffic
	// over the whole run — the communication cost of the protocol.
	MessagesSent, MessagesReceived int
}

// appliedMove records one granted decision after it was applied; a
// federation shard logs it to its selection transcript.
type appliedMove struct {
	User, Route int
}

// Platform is the platform-side state machine of Algorithm 2. It knows the
// full instance topology (routes, tasks, costs) but never the users'
// preference weights, which stay on the agents.
//
// A Platform serves either the whole user population (the classic layout)
// or, when built with WithShard, the subset of users a federation shard
// owns: the slot protocol below is entirely shard-local, with the shared
// participation counts read through the replicated store. A standalone
// platform holds a one-shard store and runs the federation node's round
// loop with no peers (see Run).
type Platform struct {
	in    *core.Instance
	conns []Conn
	cfg   PlatformConfig
	rnd   *rng.Stream

	// users[li] is the global user ID served by conns[li]; local[u] is the
	// inverse (-1 for users owned by other shards). unions[li] lists the
	// tasks that user's SlotInfo quotes.
	users  []int
	local  []int
	unions [][]int32

	// shard/shards identify this platform's slice of a federated run;
	// shard is -1 for a standalone platform, whose metrics go unlabelled.
	shard, shards int

	store   *federation.Store
	view    []int // per-slot snapshot of store counts
	choices []int
	// inited[u] is set once user u's initial decision is applied; until
	// then a reconnecting agent is re-sent Init with CurrentRoute -1 so it
	// decides afresh instead of trusting a zero-valued record.
	inited []bool
	ctr    *Counter
	tel    *platformTelemetry

	tr *tracing.Tracer
	// traceCtx is the span context stamped onto every outgoing message:
	// the init-phase span during initialization, then the current slot's
	// span. Zero when tracing is disabled or the trace is unsampled.
	traceCtx tracing.SpanContext
	// prof incrementally mirrors the applied decisions when tracing is on,
	// so per-move events carry exact ΔP_i and ΔΦ (Eq. 8) without a
	// from-scratch evaluation. It stays nil on a platform that serves only
	// some users: remote moves arrive only as count deltas, so such a
	// shard cannot price ΔΦ exactly.
	prof *core.Profile

	// slotSpan is the open tracing span of the slot in flight, started by
	// collectRequests and finished by commitSlot or terminate.
	slotSpan tracing.Span
	// lastRequests carries the request count from collectRequests to the
	// span finish in commitSlot.
	lastRequests int
}

// send stamps the current trace context onto m and sends it to the agent
// on conns[li]. All platform-side sends go through here so reconnect
// resyncs inside expect() are traced under the slot they interrupt.
func (p *Platform) send(li int, m *wire.Message) error {
	StampTrace(m, p.traceCtx)
	return p.conns[li].Send(m)
}

// traceMove records one applied (non-initial) decision as a move event
// with exact ΔP_i and ΔΦ from the incremental profile, keeping the profile
// in lockstep with the authoritative choices/counts state. Returns the
// move's ΔΦ (0 when tracing is off, the platform serves only some users,
// or the decision was a no-op).
func (p *Platform) traceMove(u, oldRoute, newRoute, slot int) float64 {
	if p.prof == nil || newRoute == oldRoute {
		return 0
	}
	uid := core.UserID(u)
	dP := p.prof.ProfitDeltaIf(uid, newRoute)
	before := p.prof.Potential()
	p.prof.SetChoice(uid, newRoute)
	dPhi := p.prof.Potential() - before
	p.tr.RecordMove(p.traceCtx, u, slot, oldRoute, newRoute, dP, dPhi)
	return dPhi
}

// initMsg builds the Init payload for user u: its recommended routes with
// platform-weighted costs and the public reward parameters of covered
// tasks (Algorithm 2 lines 1 and 4).
func (p *Platform) initMsg(u int, currentRoute int) *wire.Message {
	user := p.in.Users[u]
	routes := make([]wire.RouteInfo, len(user.Routes))
	taskParams := map[int]wire.TaskParam{}
	for ri, r := range user.Routes {
		info := wire.RouteInfo{
			DetourCost:     p.in.DetourCost(r),
			CongestionCost: p.in.CongestionCost(r),
		}
		for _, k := range r.Tasks {
			info.Tasks = append(info.Tasks, int(k))
			tk := p.in.Tasks[k]
			taskParams[int(k)] = wire.TaskParam{A: tk.A, Mu: tk.Mu}
		}
		routes[ri] = info
	}
	return &wire.Message{
		Kind: wire.KindInit,
		Init: &wire.Init{User: u, Routes: routes, Tasks: taskParams, CurrentRoute: currentRoute},
	}
}

// slotMsg builds the SlotInfo for the user on conns[li]: n_k restricted to
// tasks its routes cover (Algorithm 2 line 4 / Algorithm 1 line 9), read
// from the slot's count snapshot.
func (p *Platform) slotMsg(li, slot int) *wire.Message {
	return slotInfoMsg(slot, p.unions[li], p.view)
}

// taskUnions returns, for each listed user, the distinct tasks its routes
// cover, in first-seen order: the keys of that user's SlotInfo. All the
// lists share one backing array.
func taskUnions(in *core.Instance, users []int) [][]int32 {
	// seen[k] == li+1 marks task k as already listed for users[li].
	seen := make([]int32, in.NumTasks())
	ends := make([]int, len(users))
	var flat []int32
	for li, u := range users {
		for _, r := range in.Users[u].Routes {
			for _, k := range r.Tasks {
				if seen[k] != int32(li+1) {
					seen[k] = int32(li + 1)
					flat = append(flat, int32(k))
				}
			}
		}
		ends[li] = len(flat)
	}
	out := make([][]int32, len(users))
	start := 0
	for li, end := range ends {
		out[li] = flat[start:end:end]
		start = end
	}
	return out
}

// slotInfoMsg builds a SlotInfo quoting counts[k] for every task in union.
func slotInfoMsg(slot int, union []int32, counts []int) *wire.Message {
	view := make(map[int]int, len(union))
	for _, k := range union {
		view[int(k)] = counts[k]
	}
	return &wire.Message{Kind: wire.KindSlotInfo, SlotInfo: &wire.SlotInfo{Slot: slot, Counts: view}}
}

// applyDecision moves user u to route c, updating counts through the
// store (which, on a shard, also buffers the deltas for the next gossip
// flush).
func (p *Platform) applyDecision(u, c int, initial bool) error {
	if c < 0 || c >= len(p.in.Users[u].Routes) {
		return fmt.Errorf("distributed: user %d decided out-of-range route %d", u, c)
	}
	if !initial {
		for _, k := range p.in.Users[u].Routes[p.choices[u]].Tasks {
			p.store.Add(int(k), -1)
		}
	}
	for _, k := range p.in.Users[u].Routes[c].Tasks {
		p.store.Add(int(k), 1)
	}
	p.choices[u] = c
	return nil
}

// expect reads messages from conns[li] until one of the wanted kind
// arrives, transparently riding out the disruptions the fault-injection
// harness can produce:
//
//   - A mid-run agent restart (Hello with Resume) re-initializes the agent:
//     the platform re-sends Init with the recorded decision (or -1 before
//     the initial decision landed), the current slot info when inSlot >= 1,
//     and — when regrant is set — the Grant the crashed incarnation never
//     answered, so the slot can still complete.
//   - Stale Requests/Decisions (earlier slots, or a re-sent slot view
//     answered twice across a restart) are dropped, making the platform
//     idempotent under duplicated or replayed per-slot messages.
func (p *Platform) expect(li int, kind wire.Kind, inSlot int, regrant bool) (*wire.Message, error) {
	u := p.users[li]
	for {
		m, err := p.conns[li].Recv()
		if err != nil {
			return nil, fmt.Errorf("distributed: user %d: %w", u, err)
		}
		switch {
		case m.Kind == kind:
			// Drop stale per-slot messages left over from a crashed
			// incarnation or duplicated delivery.
			if m.Kind == wire.KindRequest && m.Request.Slot < inSlot {
				continue
			}
			if m.Kind == wire.KindDecision && m.Decision.Slot < inSlot {
				continue
			}
			return m, nil
		case m.Kind == wire.KindHello:
			if m.Hello.User != u {
				return nil, fmt.Errorf("distributed: conn for user %d claimed by user %d", u, m.Hello.User)
			}
			p.tel.reconnects.Inc()
			p.tr.RecordReconnect(p.traceCtx, u, inSlot)
			cur := -1
			if p.inited[u] {
				cur = p.choices[u]
			}
			if err := p.send(li, p.initMsg(u, cur)); err != nil {
				return nil, err
			}
			if inSlot >= 1 && p.inited[u] {
				if err := p.send(li, p.slotMsg(li, inSlot)); err != nil {
					return nil, err
				}
			}
			if regrant {
				if err := p.send(li, &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: inSlot}}); err != nil {
					return nil, err
				}
				p.tel.regrants.Inc()
			}
			continue
		case kind == wire.KindDecision && m.Kind == wire.KindRequest && m.Request.Slot <= inSlot:
			// A restarted winner answered the re-sent slot view before
			// answering the re-sent Grant; its Request is redundant — the
			// grant decision already stands on the original one.
			continue
		case kind == wire.KindRequest && m.Kind == wire.KindDecision && m.Decision.Slot < inSlot:
			// Stale decision replayed across a restart.
			continue
		default:
			return nil, fmt.Errorf("distributed: user %d sent %v, want %v", u, m.Kind, kind)
		}
	}
}

// runInit executes the initialization phase (Algorithm 2 lines 1–4):
// greet every served user, send R_i, and collect initial decisions. The
// whole phase is one trace.
func (p *Platform) runInit() error {
	initSpan := p.tr.StartSpan(p.tr.StartTrace(), tracing.KindInit, -1, 0)
	p.traceCtx = initSpan.Context()
	p.view = p.store.View(p.view)
	for li := range p.conns {
		m, err := p.expect(li, wire.KindHello, 0, false)
		if err != nil {
			return err
		}
		if m.Hello.User != p.users[li] {
			return fmt.Errorf("distributed: conn for user %d claimed by user %d", p.users[li], m.Hello.User)
		}
		if err := p.send(li, p.initMsg(p.users[li], -1)); err != nil {
			return err
		}
	}
	for li := range p.conns {
		m, err := p.expect(li, wire.KindDecision, 0, false)
		if err != nil {
			return err
		}
		u := p.users[li]
		if err := p.applyDecision(u, m.Decision.Route, true); err != nil {
			return err
		}
		p.inited[u] = true
	}
	if p.tr.Enabled() && len(p.users) == p.in.NumUsers() {
		// Track the applied decisions incrementally from here on so every
		// move event carries its exact ΔP_i and ΔΦ. A platform serving only
		// some users skips this: it never sees the full profile.
		prof, err := core.NewProfile(p.in, p.choices)
		if err != nil {
			return fmt.Errorf("distributed: tracing profile: %w", err)
		}
		p.prof = prof
	}
	initSpan.FinishSlot(0, len(p.conns), 0)
	return nil
}

// collectRequests opens decision slot `slot` for every served user: it
// snapshots the count store, broadcasts SlotInfo views, and gathers one
// Request per user, returning the improvement requests (Algorithm 2 lines
// 5–7). The slot's tracing span stays open until commitSlot or terminate.
func (p *Platform) collectRequests(slot int) ([]engine.Request, error) {
	span := p.tr.StartSpan(p.tr.StartTrace(), tracing.KindSlot, -1, slot)
	p.traceCtx = span.Context()
	p.slotSpan = span
	p.view = p.store.View(p.view)
	rtSpan := telemetry.StartSpan(p.tel.slotRoundtrip)
	for li := range p.conns {
		if err := p.send(li, p.slotMsg(li, slot)); err != nil {
			return nil, err
		}
	}
	var requests []engine.Request
	for li := range p.conns {
		m, err := p.expect(li, wire.KindRequest, slot, false)
		if err != nil {
			return nil, err
		}
		r := m.Request
		if r.Slot != slot {
			return nil, fmt.Errorf("distributed: user %d replied for slot %d in slot %d", p.users[li], r.Slot, slot)
		}
		if r.HasUpdate {
			// SelectPUU marks B's tasks in a slice indexed by task ID.
			for _, k := range r.B {
				if k < 0 || k >= p.in.NumTasks() {
					return nil, fmt.Errorf("distributed: user %d requested task %d outside [0,%d)", p.users[li], k, p.in.NumTasks())
				}
			}
			requests = append(requests, engine.Request{
				User: core.UserID(p.users[li]), Route: r.Route, Tau: r.Tau, B: r.B,
			})
		}
	}
	rtSpan.End()
	p.tel.requests.Add(uint64(len(requests)))
	p.lastRequests = len(requests)
	return requests, nil
}

// commitSlot grants the slot's winners (all of which must be users this
// platform serves), collects and applies their decisions, and closes the
// slot (Algorithm 2 lines 8–10). It returns the applied moves.
func (p *Platform) commitSlot(slot int, winners []engine.Request) ([]appliedMove, error) {
	for _, w := range winners {
		li := p.local[w.User]
		if li < 0 {
			return nil, fmt.Errorf("distributed: winner %d not served by shard %d", w.User, p.shard)
		}
		if err := p.send(li, &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: slot}}); err != nil {
			return nil, err
		}
	}
	applied := make([]appliedMove, 0, len(winners))
	var slotDPhi float64
	for _, w := range winners {
		li := p.local[w.User]
		m, err := p.expect(li, wire.KindDecision, slot, true)
		if err != nil {
			return applied, err
		}
		if m.Decision.Slot != slot {
			return applied, fmt.Errorf("distributed: user %d decision for slot %d in slot %d", p.users[li], m.Decision.Slot, slot)
		}
		u := int(w.User)
		old := p.choices[u]
		if err := p.applyDecision(u, m.Decision.Route, false); err != nil {
			return applied, err
		}
		applied = append(applied, appliedMove{User: u, Route: m.Decision.Route})
		slotDPhi += p.traceMove(u, old, m.Decision.Route, slot)
	}
	p.tel.slots.Inc()
	p.tel.grants.Add(uint64(len(winners)))
	p.slotSpan.FinishSlot(p.lastRequests, len(winners), slotDPhi)
	p.slotSpan = tracing.Span{}
	return applied, nil
}

// terminate ends the protocol for every served user (Algorithm 2 lines
// 11–12) and closes the slot span left open by collectRequests.
func (p *Platform) terminate(slot int) error {
	for li := range p.conns {
		if err := p.send(li, &wire.Message{Kind: wire.KindTerminate, Terminate: &wire.Terminate{Slot: slot}}); err != nil {
			return err
		}
	}
	p.slotSpan.Finish()
	p.slotSpan = tracing.Span{}
	return nil
}

// Run executes Algorithm 2 over the served users to completion and returns
// the run statistics. A standalone platform is the peerless case of the
// federation node: after the init phase it runs the node's round loop as
// the only shard, whose request exchange and gossip barrier have no peers
// to wait for.
func (p *Platform) Run() (stats RunStats, err error) {
	defer func() {
		stats.MessagesSent = p.ctr.Sent()
		stats.MessagesReceived = p.ctr.Recv()
	}()
	runStart := time.Now()
	if err := p.runInit(); err != nil {
		return stats, err
	}
	p.observe(0, 0, nil, time.Since(runStart))
	p.store.Flush() // close the init epoch, as a node's init broadcast does
	f := &nodeRun{opts: NodeOptions{Shards: 1}, st: p.store, mesh: &peerMesh{}, plat: p}
	err = f.slotLoop(1)
	return f.stats.RunStats, err
}

// observe builds this slot's Observation (with copies of the mutable
// state) and invokes the configured observer.
func (p *Platform) observe(slot, requests int, winners []engine.Request, elapsed time.Duration) {
	if p.cfg.Observer == nil {
		return
	}
	o := Observation{
		Slot:     slot,
		Requests: requests,
		Granted:  len(winners),
		Choices:  append([]int(nil), p.choices...),
		Elapsed:  elapsed,
	}
	if len(winners) > 0 {
		o.GrantedUsers = make([]int, len(winners))
		for i, w := range winners {
			o.GrantedUsers[i] = int(w.User)
		}
	}
	if p.cfg.ObservePotential {
		if prof, err := core.NewProfile(p.in, p.choices); err == nil {
			o.Potential, o.PotentialValid = prof.Potential(), true
		}
	}
	p.cfg.Observer(o)
}

// selectWinners applies a selection policy to a slot's requests
// (Algorithm 2 line 8). Federation shards select over the merged
// cross-shard request set.
func selectWinners(policy SelectionPolicy, rnd *rng.Stream, requests []engine.Request) []engine.Request {
	switch policy {
	case PUU:
		return engine.SelectPUU(requests)
	case Deterministic:
		best := requests[0]
		for _, r := range requests[1:] {
			if r.User < best.User {
				best = r
			}
		}
		return []engine.Request{best}
	default: // SUU
		return []engine.Request{requests[rnd.Intn(len(requests))]}
	}
}
