package distributed

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// eps is the strict-improvement tolerance; it must match core.Eps so the
// distributed agents and the sequential engine agree on what counts as a
// better response.
const eps = 1e-9

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
// cover are sorted into taskIDs, and every other per-task slice (params,
// n, onCur) is indexed like it, so evaluating a best response is slice
// arithmetic: no map lookups and no allocation.
type Agent struct {
	cfg  AgentConfig
	conn Conn
	rnd  *rng.Stream

	routes  []agentRoute
	taskIDs []int
	params  []wire.TaskParam
	// n holds the latest SlotInfo's participant counts. onCur marks the
	// tasks of routes[current]; it changes only when current does.
	n     []int
	onCur []bool
	// profits and delta are bestResponseSet's scratch: the per-route
	// profits of the last evaluation and its Δ_i.
	profits []float64
	delta   []int

	current  int
	proposed int
	// traceCtx is the trace context of the last platform message; it is
	// echoed onto every outgoing reply so the platform's slot trace spans
	// the round trip.
	traceCtx tracing.SpanContext
}

// agentRoute is one recommended route in the agent's dense view.
type agentRoute struct {
	// tasks are local task indices in the route's order, so reward sums
	// add up in the order the route lists them.
	tasks              []int32
	detour, congestion float64
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
		a.setCurrent(in.CurrentRoute)
		return nil
	}
	if decided {
		// Duplicate Init without a recorded decision: a restart raced our
		// initial report (the platform re-sent Init before it saw the
		// Decision). Re-report the decision already made instead of sampling
		// a new one, so agent and platform never diverge; the platform drops
		// whichever copy arrives second as stale.
		a.setCurrent(a.current)
		return a.send(&wire.Message{
			Kind:     wire.KindDecision,
			Decision: &wire.Decision{Slot: 0, Route: a.current},
		})
	}
	// Algorithm 1 line 3: initialize by randomly selecting a route.
	if a.cfg.Deterministic {
		a.setCurrent(0)
	} else {
		a.setCurrent(a.rnd.Intn(len(a.routes)))
	}
	// Line 4: report the initial decision.
	return a.send(&wire.Message{
		Kind:     wire.KindDecision,
		Decision: &wire.Decision{Slot: 0, Route: a.current},
	})
}

// buildView rebuilds the dense view from an Init. taskIDs is the sorted
// set of tasks the routes cover. A route task sent without parameters
// gets zero ones, whose share is 0. The counts read zero until the next
// SlotInfo. A route that lists a task twice is rejected, as
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
	a.routes = make([]agentRoute, len(in.Routes))
	for c, r := range in.Routes {
		n := len(r.Tasks)
		a.routes[c] = agentRoute{tasks: locals[:n:n], detour: r.DetourCost, congestion: r.CongestionCost}
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
				a.routes[c].tasks[w[0]] = int32(len(ids))
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
	a.n = make([]int, len(ids))
	a.onCur = make([]bool, len(ids))
	a.profits = make([]float64, len(in.Routes))
	return nil
}

// setCurrent makes c the current route and re-marks its tasks.
func (a *Agent) setCurrent(c int) {
	clear(a.onCur)
	for _, i := range a.routes[c].tasks {
		a.onCur[i] = true
	}
	a.current = c
}

// loadCounts copies a SlotInfo's participant counts into the dense view;
// a task the SlotInfo omits counts zero.
func (a *Agent) loadCounts(si *wire.SlotInfo) {
	for i, k := range a.taskIDs {
		a.n[i] = si.Counts[k]
	}
}

// profitOf evaluates the agent's profit (Eq. 2) for route index c given the
// latest counts, adjusting for the agent's own membership exactly as the
// Theorem-2 proof does: tasks already on the current route keep their
// count; tasks newly joined gain one participant.
func (a *Agent) profitOf(c int) float64 {
	r := &a.routes[c]
	var reward float64
	for _, i := range r.tasks {
		n := a.n[i]
		if !a.onCur[i] {
			n++
		}
		p := a.params[i]
		reward += task.Task{A: p.A, Mu: p.Mu}.Share(n)
	}
	return a.cfg.Alpha*reward - a.cfg.Beta*r.detour - a.cfg.Gamma*r.congestion
}

// bestResponseSet computes Δ_i locally (Algorithm 1 line 10), recording
// every route's profit in a.profits. The returned slice is scratch, valid
// until the next call.
func (a *Agent) bestResponseSet() []int {
	cur := a.profitOf(a.current)
	a.profits[a.current] = cur
	best := cur
	out := a.delta[:0]
	for c := range a.routes {
		if c == a.current {
			continue
		}
		v := a.profitOf(c)
		a.profits[c] = v
		switch {
		case v > best+eps:
			best = v
			out = out[:0]
			out = append(out, c)
		case v > cur+eps && v >= best-eps && len(out) > 0:
			out = append(out, c)
		}
	}
	a.delta = out
	return out
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
		req.Tau = (a.profits[a.proposed] - a.profits[a.current]) / a.cfg.Alpha
		req.B = a.moveTasks(a.proposed)
	} else {
		a.proposed = -1
	}
	return a.send(&wire.Message{Kind: wire.KindRequest, Request: req})
}

// moveTasks returns B_i: the union of tasks on the current and proposed
// routes (Algorithm 3 input), current route first. The slice is fresh:
// the platform keeps it.
func (a *Agent) moveTasks(c int) []int {
	cur, next := a.routes[a.current].tasks, a.routes[c].tasks
	size := len(cur)
	for _, i := range next {
		if !a.onCur[i] {
			size++
		}
	}
	out := make([]int, 0, size)
	for _, i := range cur {
		out = append(out, a.taskIDs[i])
	}
	for _, i := range next {
		if !a.onCur[i] {
			out = append(out, a.taskIDs[i])
		}
	}
	return out
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
	a.setCurrent(a.proposed)
	a.proposed = -1
	return a.send(&wire.Message{
		Kind:     wire.KindDecision,
		Decision: &wire.Decision{Slot: g.Slot, Route: a.current},
	})
}
