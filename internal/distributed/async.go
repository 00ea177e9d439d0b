package distributed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// This file implements an ASYNCHRONOUS variant of the protocol: instead of
// lock-step decision slots, the platform versions its participant counts,
// users request updates whenever their latest view admits an improvement,
// and the platform serializes updates with a single outstanding grant
// (token). A granted user re-evaluates against its freshest counts before
// moving, so every applied move is a genuine best response at application
// time and the potential still ascends — Theorem 2's convergence argument
// carries over even though there is no global slot barrier.
//
// The wire vocabulary is reused: SlotInfo.Slot carries the counts version,
// Request.Slot echoes the version a user responded to.

// AsyncStats summarizes an asynchronous run.
type AsyncStats struct {
	Versions     int // count-state versions (== applied updates + 1)
	Grants       int // grants issued (some may be no-ops after re-evaluation)
	TotalUpdates int // decisions that actually changed a route
	Converged    bool
	Choices      []int
}

// asyncEvent is one message from one user, merged across connections.
type asyncEvent struct {
	user int
	msg  *wire.Message
	err  error
}

// asyncPlatform drives the asynchronous protocol. Build it through New
// with WithAsync (or the deprecated AsyncPlatform wrapper).
type asyncPlatform struct {
	in      *core.Instance
	conns   []Conn
	nk      []int
	choices []int
	version int
	// unions[u] lists the tasks user u's count views quote.
	unions [][]int32
	// observer, when non-nil, is invoked after initialization and after
	// every applied update with an Observation — the same struct the
	// synchronous platform reports, with Slot carrying the counts version.
	// The chaos tests use it to assert the potential ascends across
	// applied updates (Theorem 2).
	observer func(Observation)
	// tracer, when non-nil, records the run into the distributed tracer:
	// the whole asynchronous run is one trace (there are no slots to cut
	// it at), with one move event per applied update carrying ΔP_i/ΔΦ
	// from an incrementally maintained profile.
	tracer *tracing.Tracer

	traceCtx tracing.SpanContext
	prof     *core.Profile
}

// newAsyncPlatform prepares an asynchronous run over conns. The
// connections are wrapped (sequence dedup, and transport-span tracing when
// the tracer is set) at the start of Run, so observer and tracer can be
// assigned after construction.
func newAsyncPlatform(in *core.Instance, conns []Conn) (*asyncPlatform, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	if len(conns) != in.NumUsers() {
		return nil, fmt.Errorf("distributed: %d connections for %d users", len(conns), in.NumUsers())
	}
	users := make([]int, in.NumUsers())
	for u := range users {
		users[u] = u
	}
	return &asyncPlatform{
		in:      in,
		conns:   append([]Conn(nil), conns...),
		nk:      make([]int, in.NumTasks()),
		choices: make([]int, in.NumUsers()),
		unions:  taskUnions(in, users),
	}, nil
}

// send stamps the run's trace context onto m and sends it to user u.
func (p *asyncPlatform) send(u int, m *wire.Message) error {
	StampTrace(m, p.traceCtx)
	return p.conns[u].Send(m)
}

// traceMove records one applied update as a move event with exact
// ΔP_i/ΔΦ, keeping the tracing profile in lockstep.
func (p *asyncPlatform) traceMove(u, oldRoute, newRoute int) {
	if p.prof == nil || newRoute == oldRoute {
		return
	}
	uid := core.UserID(u)
	dP := p.prof.ProfitDeltaIf(uid, newRoute)
	before := p.prof.Potential()
	p.prof.SetChoice(uid, newRoute)
	dPhi := p.prof.Potential() - before
	p.tracer.RecordMove(p.traceCtx, u, p.version, oldRoute, newRoute, dP, dPhi)
}

// initMsg/slotMsg mirror the synchronous platform's views.
func (p *asyncPlatform) initMsg(u, currentRoute int) *wire.Message {
	sync := Platform{in: p.in}
	return sync.initMsg(u, currentRoute)
}

func (p *asyncPlatform) viewMsg(u int) *wire.Message {
	return slotInfoMsg(p.version, p.unions[u], p.nk)
}

func (p *asyncPlatform) applyDecision(u, c int, initial bool) error {
	if c < 0 || c >= len(p.in.Users[u].Routes) {
		return fmt.Errorf("distributed: user %d decided out-of-range route %d", u, c)
	}
	if !initial {
		for _, k := range p.in.Users[u].Routes[p.choices[u]].Tasks {
			p.nk[k]--
		}
	}
	for _, k := range p.in.Users[u].Routes[c].Tasks {
		p.nk[k]++
	}
	p.choices[u] = c
	return nil
}

// Run executes the asynchronous protocol to convergence.
func (p *asyncPlatform) Run() (AsyncStats, error) {
	var stats AsyncStats
	n := len(p.conns)
	for i, c := range p.conns {
		p.conns[i] = WithSeq(WithTrace(c, p.tracer, i), -1)
	}
	// The whole asynchronous run is one trace; the init span covers the
	// handshake and parents every later event.
	runSpan := p.tracer.StartSpan(p.tracer.StartTrace(), tracing.KindInit, -1, 0)
	p.traceCtx = runSpan.Context()
	// Handshake, synchronous per user as in the slotted protocol.
	for u := 0; u < n; u++ {
		m, err := p.conns[u].Recv()
		if err != nil {
			return stats, err
		}
		if m.Kind != wire.KindHello || m.Hello.User != u {
			return stats, fmt.Errorf("distributed: bad hello on conn %d", u)
		}
		if err := p.send(u, p.initMsg(u, -1)); err != nil {
			return stats, err
		}
	}
	for u := 0; u < n; u++ {
		m, err := p.conns[u].Recv()
		if err != nil {
			return stats, err
		}
		if m.Kind != wire.KindDecision {
			return stats, fmt.Errorf("distributed: expected initial decision from %d, got %v", u, m.Kind)
		}
		if err := p.applyDecision(u, m.Decision.Route, true); err != nil {
			return stats, err
		}
	}
	if p.tracer.Enabled() {
		prof, err := core.NewProfile(p.in, p.choices)
		if err != nil {
			return stats, fmt.Errorf("distributed: tracing profile: %w", err)
		}
		p.prof = prof
	}
	runSpan.FinishSlot(0, n, 0)
	p.version = 1
	stats.Versions = 1
	p.observe(nil)

	// Merge incoming messages from all users.
	events := make(chan asyncEvent, n*4)
	stop := make(chan struct{})
	for u := 0; u < n; u++ {
		go func(u int) {
			for {
				m, err := p.conns[u].Recv()
				select {
				case events <- asyncEvent{user: u, msg: m, err: err}:
				case <-stop:
					return
				}
				if err != nil {
					return
				}
			}
		}(u)
	}
	defer close(stop)

	// Broadcast the initial view.
	for u := 0; u < n; u++ {
		if err := p.send(u, p.viewMsg(u)); err != nil {
			return stats, err
		}
	}

	// ackVersion[u] = newest version user u declared "no improvement" for.
	ackVersion := make([]int, n)
	for i := range ackVersion {
		ackVersion[i] = -1
	}
	granted := -1     // user holding the token, -1 if none
	var pending []int // users with outstanding improvement requests

	converged := func() bool {
		if granted != -1 || len(pending) > 0 {
			return false
		}
		for _, v := range ackVersion {
			if v != p.version {
				return false
			}
		}
		return true
	}
	grantNext := func() error {
		for granted == -1 && len(pending) > 0 {
			u := pending[0]
			pending = pending[1:]
			granted = u
			stats.Grants++
			if err := p.send(u, &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: p.version}}); err != nil {
				return err
			}
		}
		return nil
	}

	for !converged() {
		ev := <-events
		if ev.err != nil {
			return stats, fmt.Errorf("distributed: user %d: %w", ev.user, ev.err)
		}
		switch ev.msg.Kind {
		case wire.KindRequest:
			r := ev.msg.Request
			if r.HasUpdate {
				// Enqueue once; duplicates are harmless but wasteful.
				already := granted == ev.user
				for _, q := range pending {
					if q == ev.user {
						already = true
					}
				}
				if !already {
					pending = append(pending, ev.user)
				}
			} else if r.Slot > ackVersion[ev.user] {
				ackVersion[ev.user] = r.Slot
			}
			if err := grantNext(); err != nil {
				return stats, err
			}
		case wire.KindDecision:
			if ev.user != granted {
				return stats, fmt.Errorf("distributed: decision from %d without the token", ev.user)
			}
			granted = -1
			old := p.choices[ev.user]
			if err := p.applyDecision(ev.user, ev.msg.Decision.Route, false); err != nil {
				return stats, err
			}
			if p.choices[ev.user] != old {
				stats.TotalUpdates++
				p.version++
				stats.Versions++
				p.traceMove(ev.user, old, p.choices[ev.user])
				p.observe([]int{ev.user})
				// Counts changed: rebroadcast views; acks for older
				// versions become stale automatically.
				for u := 0; u < n; u++ {
					if err := p.send(u, p.viewMsg(u)); err != nil {
						return stats, err
					}
				}
			} else {
				// No-op move (the improvement vanished): the user's reply to
				// the current view will carry its ack.
				if err := p.send(ev.user, p.viewMsg(ev.user)); err != nil {
					return stats, err
				}
			}
			if err := grantNext(); err != nil {
				return stats, err
			}
		case wire.KindHello:
			// Mid-run restart: re-init and resend the current view.
			p.tracer.RecordReconnect(p.traceCtx, ev.user, p.version)
			if err := p.send(ev.user, p.initMsg(ev.user, p.choices[ev.user])); err != nil {
				return stats, err
			}
			if err := p.send(ev.user, p.viewMsg(ev.user)); err != nil {
				return stats, err
			}
		default:
			return stats, fmt.Errorf("distributed: unexpected async message %v from %d", ev.msg.Kind, ev.user)
		}
	}
	for u := 0; u < n; u++ {
		if err := p.send(u, &wire.Message{Kind: wire.KindTerminate, Terminate: &wire.Terminate{Slot: p.version}}); err != nil {
			return stats, err
		}
	}
	stats.Converged = true
	stats.Choices = append([]int(nil), p.choices...)
	return stats, nil
}

// observe invokes the configured observer with this version's Observation
// (Slot carries the counts version; grantedUsers the applied updater, if
// any).
func (p *asyncPlatform) observe(grantedUsers []int) {
	if p.observer == nil {
		return
	}
	o := Observation{
		Slot:    p.version,
		Granted: len(grantedUsers),
		Choices: append([]int(nil), p.choices...),
	}
	if len(grantedUsers) > 0 {
		o.GrantedUsers = append([]int(nil), grantedUsers...)
	}
	p.observer(o)
}

// AsyncAgent is the user-side loop for the asynchronous protocol. Unlike
// the slotted Agent it re-evaluates its best response WHEN GRANTED, against
// the freshest counts it has seen, so stale requests degrade into no-ops
// instead of profit-losing moves.
type AsyncAgent struct {
	inner *Agent
}

// NewAsyncAgent creates an asynchronous agent over conn.
func NewAsyncAgent(conn Conn, cfg AgentConfig) *AsyncAgent {
	return &AsyncAgent{inner: NewAgent(conn, cfg)}
}

// Run executes the asynchronous user loop until termination.
func (a *AsyncAgent) Run() error {
	ag := a.inner
	if err := ag.hello(false); err != nil {
		return err
	}
	lastVersion := 0
	for {
		m, err := ag.conn.Recv()
		if err != nil {
			return fmt.Errorf("async agent %d: %w", ag.cfg.User, err)
		}
		ag.traceCtx = TraceContext(m)
		switch m.Kind {
		case wire.KindInit:
			if err := ag.handleInit(m.Init); err != nil {
				return err
			}
		case wire.KindSlotInfo:
			ag.loadCounts(m.SlotInfo)
			lastVersion = m.SlotInfo.Slot
			delta := ag.bestResponseSet()
			req := &wire.Request{Slot: lastVersion}
			if len(delta) > 0 {
				req.HasUpdate = true
				req.Route = delta[0]
			}
			if err := ag.send(&wire.Message{Kind: wire.KindRequest, Request: req}); err != nil {
				return err
			}
		case wire.KindGrant:
			// Re-evaluate NOW: the counts may have moved since the request.
			delta := ag.bestResponseSet()
			if len(delta) > 0 {
				ag.setCurrent(delta[0])
			}
			if err := ag.send(&wire.Message{
				Kind:     wire.KindDecision,
				Decision: &wire.Decision{Slot: lastVersion, Route: ag.current},
			}); err != nil {
				return err
			}
		case wire.KindTerminate:
			return nil
		default:
			return fmt.Errorf("async agent %d: unexpected %v", ag.cfg.User, m.Kind)
		}
	}
}

// AsyncRunOptions configures RunAsyncInProcessOpts beyond the defaults of
// RunAsyncInProcess.
type AsyncRunOptions struct {
	AgentSeedBase uint64
	// Profile, when non-zero, decorates every link with seeded fault
	// injection; pair it with a Retry policy so the loops ride out the
	// transient failures. Hard disconnects are not supported by the async
	// runner (use RunChaos for crash/reconnect testing).
	Profile   FaultProfile
	FaultSeed uint64
	Retry     RetryPolicy
	// Log aggregates injected faults across all links when non-nil.
	Log *FaultLog
	// Observer is installed on the platform (see AsyncPlatform.Observer).
	Observer func(Observation)
	// Tracer is installed on the platform, every agent, and every fault /
	// retry decorator, so one flight recorder sees the whole run.
	Tracer *tracing.Tracer
}

// RunAsyncInProcess runs the asynchronous protocol with channel transports:
// one platform goroutine plus one async agent per user.
func RunAsyncInProcess(in *core.Instance, agentSeedBase uint64) (AsyncStats, error) {
	return RunAsyncInProcessOpts(in, AsyncRunOptions{AgentSeedBase: agentSeedBase})
}

// RunAsyncInProcessOpts is RunAsyncInProcess with fault injection, retry
// hardening, and an update observer.
func RunAsyncInProcessOpts(in *core.Instance, opts AsyncRunOptions) (AsyncStats, error) {
	n := in.NumUsers()
	platConns := make([]Conn, n)
	agentConns := make([]Conn, n)
	faulty := opts.Profile != (FaultProfile{})
	for i := 0; i < n; i++ {
		pc, ac := ChanPair(4 * n)
		if faulty {
			pc = NewFaultConn(pc, opts.Profile, faultSeed(opts.FaultSeed, i, 0), opts.Log).WithTracer(opts.Tracer, i)
			ac = NewFaultConn(ac, opts.Profile, faultSeed(opts.FaultSeed, i, 1), opts.Log).WithTracer(opts.Tracer, i)
		}
		if opts.Retry.MaxAttempts > 0 {
			pc = WithRetryTraced(pc, opts.Retry, opts.Tracer, i)
			ac = WithRetryTraced(ac, opts.Retry, opts.Tracer, i)
		}
		platConns[i], agentConns[i] = pc, ac
	}
	plat, err := New(in, platConns, WithAsync(), WithObserver(opts.Observer), WithTracer(opts.Tracer))
	if err != nil {
		return AsyncStats{}, err
	}
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			a := NewAsyncAgent(agentConns[i], AgentConfig{
				User:  i,
				Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta, Gamma: in.Users[i].Gamma,
				Seed:   opts.AgentSeedBase + uint64(i),
				Tracer: opts.Tracer,
			})
			errs[i] = a.Run()
			done <- i
		}(i)
	}
	stats, perr := plat.RunAsync()
	for i := 0; i < n; i++ {
		<-done
	}
	for i, e := range errs {
		if e != nil && perr == nil {
			perr = fmt.Errorf("agent %d: %w", i, e)
		}
	}
	return stats, perr
}
