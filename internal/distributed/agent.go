package distributed

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// AgentConfig configures one user agent. The preference weights α, β, γ are
// the user's own input (Algorithm 1 line 1) and are never sent to the
// platform.
type AgentConfig struct {
	User               int
	Alpha, Beta, Gamma float64
	Seed               uint64
	// Deterministic makes the agent choose route 0 initially and the first
	// element of its best route set when updating, instead of sampling.
	// Used by equivalence tests against a sequential reference run.
	Deterministic bool
	// Epoch is this agent incarnation's number: 0 for the first life, +1
	// per crash-and-restart. It namespaces the sequence numbers so the
	// receiver's dedup layer does not mistake a restarted agent's fresh
	// messages for duplicates (see wire.Message.Epoch).
	Epoch uint32
	// Tracer, when non-nil, records this agent's transport spans. The
	// agent always echoes the trace context of the last platform message
	// on its replies (that costs three integer stores), so platform-side
	// traces link across the process boundary even when this is nil.
	Tracer *tracing.Tracer
}

// Agent is the user-side state machine of Algorithm 1. It owns no global
// knowledge: only its recommended routes (with platform-computed costs),
// the public reward parameters of tasks those routes cover, and the latest
// participant counts received from the platform.
//
// Every Init rebuilds a dense view of that game. The tasks its routes
// cover are sorted into taskIDs, every other per-task slice (params, n and
// the share caches) is indexed like it, and the routes' overlap masks are
// built over those local indices. A best response then runs core's move
// kernel (core.MoveView) and Δ_i rule on that view, as the engine's
// profile does: no map lookups and no allocation.
type Agent struct {
	cfg  AgentConfig
	conn Conn
	rnd  *rng.Stream

	routes  []core.MoveRoute[int32] // task entries are local indices
	masks   core.RouteMasks
	taskIDs []int
	params  []wire.TaskParam
	// n holds the latest SlotInfo's participant counts (-1 before the
	// first SlotInfo); shares holds the shares core.MoveShares gives at
	// those counts, refreshed only where a count changed.
	n      []int
	shares core.Shares
	// dp, delta and b are the per-slot scratch: ΔP_i of every route, Δ_i,
	// and B_i of the proposed move in local indices.
	dp    []float64
	delta []int
	b     []int32
	// skip is this user's skip bound, computed from its own weights and
	// routes, which turns an empty Δ_i into the Request's tolerance.
	skip core.SkipBound

	current  int
	proposed int
	// traceCtx is the trace context of the last platform message; it is
	// echoed onto every outgoing reply so the platform's slot trace spans
	// the round trip.
	traceCtx tracing.SpanContext
}

// NewAgent creates an agent speaking over conn. The connection is wrapped
// with sequence stamping and duplicate suppression (and transport-span
// recording when the config carries a tracer).
func NewAgent(conn Conn, cfg AgentConfig) *Agent {
	return &Agent{
		cfg:      cfg,
		conn:     WithSeqEpoch(WithTrace(conn, cfg.Tracer, cfg.User), cfg.User, cfg.Epoch),
		rnd:      rng.New(cfg.Seed),
		proposed: -1,
	}
}

// send echoes the last received trace context onto m and sends it.
func (a *Agent) send(m *wire.Message) error {
	StampTrace(m, a.traceCtx)
	return a.conn.Send(m)
}

// Run executes Algorithm 1 until the termination message arrives. It
// returns nil on normal termination.
func (a *Agent) Run() error {
	if err := a.hello(false); err != nil {
		return err
	}
	return a.runLoop()
}

// RunResume runs a restarted incarnation: it announces itself with
// Hello{Resume} so the platform re-sends Init (with the decision it has on
// record) and the current slot view, then re-enters the protocol loop.
// The caller should have bumped AgentConfig.Epoch relative to the crashed
// incarnation.
func (a *Agent) RunResume() error {
	if err := a.hello(true); err != nil {
		return err
	}
	return a.runLoop()
}

// runLoop processes platform messages until termination. Split from Run so
// a restarted agent (which sends Hello{Resume} itself) can re-enter the
// loop.
func (a *Agent) runLoop() error {
	for {
		m, err := a.conn.Recv()
		if err != nil {
			return fmt.Errorf("agent %d: %w", a.cfg.User, err)
		}
		// Adopt the platform's trace context: our replies (and any spans we
		// record) become children of the platform's current slot span.
		a.traceCtx = TraceContext(m)
		switch m.Kind {
		case wire.KindInit:
			if err := a.handleInit(m.Init); err != nil {
				return err
			}
		case wire.KindSlotInfo:
			if a.routes == nil {
				// Stale view from before a crash, delivered ahead of the
				// resume Init: drop it, the platform re-sends the current
				// view after re-initializing us.
				continue
			}
			if err := a.handleSlot(m.SlotInfo); err != nil {
				return err
			}
		case wire.KindGrant:
			if a.routes == nil {
				continue // stale pre-crash grant; superseded by the resume path
			}
			if err := a.handleGrant(m.Grant); err != nil {
				return err
			}
		case wire.KindTerminate:
			return nil
		default:
			return fmt.Errorf("agent %d: unexpected message %v", a.cfg.User, m.Kind)
		}
	}
}

func (a *Agent) hello(resume bool) error {
	return a.send(&wire.Message{
		Kind:  wire.KindHello,
		Hello: &wire.Hello{User: a.cfg.User, Resume: resume},
	})
}

func (a *Agent) handleInit(in *wire.Init) error {
	if in.User != a.cfg.User {
		return fmt.Errorf("agent %d: init addressed to %d", a.cfg.User, in.User)
	}
	if len(in.Routes) == 0 {
		return fmt.Errorf("agent %d: empty recommended route set", a.cfg.User)
	}
	decided := a.routes != nil
	if err := a.buildView(in); err != nil {
		return err
	}
	if in.CurrentRoute >= 0 {
		// Resumed session: the platform has our decision on record.
		if in.CurrentRoute >= len(a.routes) {
			return fmt.Errorf("agent %d: resumed route %d out of range", a.cfg.User, in.CurrentRoute)
		}
		a.current = in.CurrentRoute
		return nil
	}
	if decided {
		// Duplicate Init without a recorded decision: a restart raced our
		// initial report (the platform re-sent Init before it saw the
		// Decision). Re-report the decision already made instead of sampling
		// a new one, so agent and platform never diverge; the platform drops
		// whichever copy arrives second as stale.
		return a.send(&wire.Message{
			Kind:     wire.KindDecision,
			Decision: &wire.Decision{Slot: 0, Route: a.current},
		})
	}
	// Algorithm 1 line 3: initialize by randomly selecting a route.
	if a.cfg.Deterministic {
		a.current = 0
	} else {
		a.current = a.rnd.Intn(len(a.routes))
	}
	// Line 4: report the initial decision.
	return a.send(&wire.Message{
		Kind:     wire.KindDecision,
		Decision: &wire.Decision{Slot: 0, Route: a.current},
	})
}

// buildView rebuilds the dense view from an Init. taskIDs is the sorted
// set of tasks the routes cover. A route task sent without parameters
// gets zero ones, whose share is 0. The share caches are filled by the
// next SlotInfo. A route that lists a task twice is rejected, as
// core.Instance.Validate rejects it on the platform side.
func (a *Agent) buildView(in *wire.Init) error {
	total := 0
	for _, r := range in.Routes {
		total += len(r.Tasks)
	}
	locals := make([]int32, total)
	// walk[c] lists route c's positions in ascending task order. The
	// scenario builder's coverage queries list tasks sorted, so the sort
	// is usually a no-op check.
	order := make([]int32, total)
	walk := make([][]int32, len(in.Routes))
	a.routes = make([]core.MoveRoute[int32], len(in.Routes))
	for c, r := range in.Routes {
		n := len(r.Tasks)
		a.routes[c] = core.MoveRoute[int32]{Tasks: locals[:n:n], Detour: r.DetourCost, Congestion: r.CongestionCost}
		locals = locals[n:]
		w := order[:n:n]
		order = order[n:]
		for j := range w {
			w[j] = int32(j)
		}
		if !slices.IsSorted(r.Tasks) {
			slices.SortFunc(w, func(x, y int32) int { return cmp.Compare(r.Tasks[x], r.Tasks[y]) })
		}
		walk[c] = w
	}
	// Merge the routes in one ascending pass, numbering each distinct task
	// as it first appears: no sort of the union and no per-agent map.
	ids := make([]int, 0, total)
	for {
		k, found := 0, false
		for c, r := range in.Routes {
			if w := walk[c]; len(w) > 0 && (!found || r.Tasks[w[0]] < k) {
				k, found = r.Tasks[w[0]], true
			}
		}
		if !found {
			break
		}
		for c, r := range in.Routes {
			if w := walk[c]; len(w) > 0 && r.Tasks[w[0]] == k {
				if len(w) > 1 && r.Tasks[w[1]] == k {
					return fmt.Errorf("agent %d: route %d covers task %d twice", a.cfg.User, c, k)
				}
				a.routes[c].Tasks[w[0]] = int32(len(ids))
				walk[c] = w[1:]
			}
		}
		ids = append(ids, k)
	}
	a.taskIDs = ids
	a.params = make([]wire.TaskParam, len(ids))
	for i, k := range ids {
		a.params[i] = in.Tasks[k]
	}
	for c := range walk {
		walk[c] = a.routes[c].Tasks
	}
	a.masks = core.NewRouteMasks(walk, len(ids))
	a.skip = core.NewSkipBound(core.NewWatchScan(len(ids)), a.cfg.Alpha, a.cfg.Beta, a.cfg.Gamma, a.routes,
		func(i int32) task.Task { return task.Task{A: a.params[i].A, Mu: a.params[i].Mu} })
	a.n = make([]int, len(ids))
	for i := range a.n {
		a.n[i] = -1
	}
	a.shares = core.Shares{Now: make([]float64, len(ids)), Join: make([]float64, len(ids))}
	a.dp = make([]float64, len(in.Routes))
	return nil
}

// loadCounts copies a SlotInfo's participant counts into the dense view
// and refreshes the share caches of the tasks whose count changed; a task
// the SlotInfo omits counts zero. Under PUU's disjoint B sets a count moves
// by at most one between SlotInfos, so ShiftShares computes one share, not
// two (the pair at the initial count −1, (0, 0), is MoveShares' too).
func (a *Agent) loadCounts(si *wire.SlotInfo) {
	for i, k := range a.taskIDs {
		if n := si.Counts[k]; n != a.n[i] {
			p := a.params[i]
			a.shares.Now[i], a.shares.Join[i] = core.ShiftShares(task.Task{A: p.A, Mu: p.Mu}, a.n[i], n, a.shares.Now[i], a.shares.Join[i])
			a.n[i] = n
		}
	}
}

// bestResponseSet computes Δ_i locally (Algorithm 1 line 10) with core's
// move kernel and Δ_i rule, recording every route's ΔP_i in a.dp (the
// current route's, 0, is not read). The returned slice is scratch, valid
// until the next call.
func (a *Agent) bestResponseSet() []int {
	v := core.MoveView[int32]{Alpha: a.cfg.Alpha, Beta: a.cfg.Beta, Gamma: a.cfg.Gamma,
		Routes: a.routes, Masks: &a.masks, Shares: &a.shares}
	for c := range a.routes {
		a.dp[c] = v.Delta(a.current, c)
	}
	a.delta = core.BestResponseSetOf(a.delta, a.dp, a.current)
	return a.delta
}

func (a *Agent) handleSlot(si *wire.SlotInfo) error {
	if a.routes == nil {
		return fmt.Errorf("agent %d: slot info before init", a.cfg.User)
	}
	a.loadCounts(si)
	delta := a.bestResponseSet()
	req := &wire.Request{Slot: si.Slot}
	if len(delta) > 0 {
		// Algorithm 1 line 12: contend for the update opportunity.
		if a.cfg.Deterministic {
			a.proposed = delta[0]
		} else {
			a.proposed = delta[a.rnd.Intn(len(delta))]
		}
		req.HasUpdate = true
		req.Route = a.proposed
		// τ_i = ΔP_i/α_i (Eq. 11), the value and the division of
		// core.Profile.Tau. B_i (Algorithm 3 input) is fresh: the platform
		// keeps it.
		req.Tau = a.dp[a.proposed] / a.cfg.Alpha
		cur, next := a.routes[a.current].Tasks, a.routes[a.proposed].Tasks
		a.b = core.AppendMoveTasksOf(a.b[:0], cur, next, a.masks.Mask(a.current, a.proposed, len(next)))
		req.B = make([]int, len(a.b))
		for j, i := range a.b {
			req.B[j] = a.taskIDs[i]
		}
	} else {
		a.proposed = -1
		// No move: tell the platform how much share drift this answer
		// survives, so it need not ask again until that much piles up.
		req.Tolerance = a.skip.Tolerance(core.Gap(a.dp, a.current))
	}
	return a.send(&wire.Message{Kind: wire.KindRequest, Request: req})
}

func (a *Agent) handleGrant(g *wire.Grant) error {
	if a.proposed < 0 {
		// A grant with no pending proposal happens when we crashed after
		// requesting and the improvement vanished on re-evaluation after
		// the restart. Declining by re-reporting the current route keeps
		// the slot protocol in lockstep and is a harmless no-op move
		// (Theorem 2's potential ascent is unaffected).
		return a.send(&wire.Message{
			Kind:     wire.KindDecision,
			Decision: &wire.Decision{Slot: g.Slot, Route: a.current},
		})
	}
	// Algorithm 1 lines 14–15: adopt the proposed route and report it.
	a.current = a.proposed
	a.proposed = -1
	return a.send(&wire.Message{
		Kind:     wire.KindDecision,
		Decision: &wire.Decision{Slot: g.Slot, Route: a.current},
	})
}
