package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Workload sizes and the seeds that stay fixed while --seed varies. The
// road world (a generated Shanghai-like city and its taxi traces) is a
// fixture like a map; --seed draws the users, tasks and initial routes.
const (
	synthUsers, synthTasks   = 1000, 1000
	muxSessions              = 2
	nodeUsers, nodeTasks     = 1000, 500
	engineUsers, engineTasks = 3000, 800
	worldSeed                = 1
	platformSeed             = 1
	agentSeedBase            = 1000
	// linkTimeout bounds every wait on a link so a wedged episode fails
	// instead of outliving the run's deadline.
	linkTimeout = 60 * time.Second
)

// episode is one complete run of a workload from handed-over inputs to
// termination, with its correctness checks applied.
type episode struct {
	setupNs, tteNs int64
	rounds         int
	roundMs        []float64
	cpuNs          int64
	fp             uint64
	peakRSSMB      float64
	// Traced episodes only.
	layers map[string]float64
	spans  *spanLog
}

// loopClock snapshots process CPU time (and, traced, allocator state) when
// the first slot opens, so per-round costs exclude set-up.
type loopClock struct {
	traced bool
	cpu0   int64
	mem0   memSnap
}

func (l *loopClock) start() {
	l.cpu0 = cpuNs()
	if l.traced {
		l.mem0 = readMem()
	}
}

// runtimeLayers adds the runtime-layer deltas over the slot loop.
func (l *loopClock) runtimeLayers(m map[string]float64, rounds int) {
	d := readMem()
	r := float64(rounds)
	m["runtime.alloc_kb_per_round"] = float64(d.alloc-l.mem0.alloc) / 1024 / r
	m["runtime.mallocs_per_round"] = float64(d.mallocs-l.mem0.mallocs) / r
	m["runtime.gc_per_round"] = float64(d.gc-l.mem0.gc) / r
	m["runtime.gc_pause_ms_per_round"] = float64(d.pauseNs-l.mem0.pauseNs) / 1e6 / r
}

// agentLayers summarizes the agents' Algorithm 1 latencies.
func agentLayers(m map[string]float64, times []*agentTimes, rounds int) {
	var br, grant []float64
	var busy int64
	for _, t := range times {
		for _, d := range t.br {
			br = append(br, float64(d)/1e3)
			busy += d
		}
		for _, d := range t.grant {
			grant = append(grant, float64(d)/1e3)
			busy += d
		}
	}
	m["agent.br_us_p50"] = quantile(br, 0.5)
	m["agent.br_us_p90"], _ = tailQuantile(br, 0.9)
	m["agent.grant_us_p50"] = quantile(grant, 0.5)
	m["agent.busy_ms_per_round"] = float64(busy) / 1e6 / float64(rounds)
}

// wireLayers reports an episode's link traffic: handshake, rounds and
// termination, divided by the rounds. Whole-episode bytes and messages
// repeat exactly for an instance; a split at the first slot would not,
// because the slot opening races the first SlotInfo writes.
func wireLayers(m map[string]float64, d meterSnap, msgs int64, rounds int) {
	r := float64(rounds)
	if msgs > 0 {
		m["wire.bytes_per_msg"] = float64(d.bytes) / float64(msgs)
	}
	m["wire.bytes_per_round"] = float64(d.bytes) / r
	m["wire.writes_per_round"] = float64(d.writes) / r
	m["wire.reads_per_round"] = float64(d.reads) / r
	m["wire.write_ms_per_round"] = float64(d.writeNs) / 1e6 / r
}

// checkEquilibrium applies the paper's termination invariants to a final
// profile: zero Nash gap (Thm 4's fixed point) and potential ascent from
// the initial profile (Thm 2). It returns the Nash-gap evaluation time.
func checkEquilibrium(in *core.Instance, initial, final []int) (int64, error) {
	p0, err := core.NewProfile(in, initial)
	if err != nil {
		return 0, fmt.Errorf("initial profile: %w", err)
	}
	p1, err := core.NewProfile(in, final)
	if err != nil {
		return 0, fmt.Errorf("final profile: %w", err)
	}
	t := now()
	gap := p1.NashGap()
	gapNs := now() - t
	if gap != 0 {
		return gapNs, fmt.Errorf("final profile has Nash gap %g, want 0", gap)
	}
	if phi0, phi1 := p0.Potential(), p1.Potential(); phi1 < phi0 {
		return gapNs, fmt.Errorf("potential fell from %g to %g", phi0, phi1)
	}
	return gapNs, nil
}

// probeResult ends a set-up probe that ran with a one-slot budget: the
// platform must have stopped for lack of slots, not for any other error,
// and the first slot must have opened. Agent errors are expected, since
// the probe closes their links mid-run.
func probeResult(t0 int64, open *opener, runErr error) (episode, error) {
	if !errors.Is(runErr, distributed.ErrNoConvergence) {
		return episode{}, fmt.Errorf("set-up probe: want a one-slot stop, got %v", runErr)
	}
	start := open.t.Load()
	if start == 0 {
		return episode{}, errors.New("set-up probe: the first slot never opened")
	}
	return episode{setupNs: start - t0}, nil
}

func agentConfig(in *core.Instance, u int) distributed.AgentConfig {
	us := in.Users[u]
	return distributed.AgentConfig{User: u, Alpha: us.Alpha, Beta: us.Beta, Gamma: us.Gamma, Seed: agentSeedBase + uint64(u)}
}

// --- synth-suu-mux: standalone platform over muxed loopback TCP ---

// instanceStream is the random stream that draws instance j of a run
// seeded with seed.
func instanceStream(seed uint64, j int) *rng.Stream { return rng.New(seed).ChildN(j) }

func synthInstance(seed uint64, j int) *core.Instance {
	return core.RandomInstance(core.DefaultRandomConfig(synthUsers, synthTasks), instanceStream(seed, j))
}

// synthEpisode composes the platform and the agent fleet exactly as
// ServeTCPMux and DialTCPMux do — two TCP connections, a mux session on
// each end, one logical link per user — with a slot observer installed as
// platformd -http installs one.
func synthEpisode(in *core.Instance, md mode) (ep episode, err error) {
	traced := md == modeTraced
	t0 := now()
	n := in.NumUsers()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ep, err
	}
	defer ln.Close()
	meter := &wireMeter{}
	var clients, servers []*distributed.MuxTransport
	var agents, acceptors sync.WaitGroup
	done := make(chan struct{})
	// Closing the sessions ends every agent and acceptor still running,
	// on the error paths too; then wait for them.
	defer func() {
		close(done)
		for _, t := range append(clients, servers...) {
			t.Close()
		}
		acceptors.Wait()
		agents.Wait()
	}()
	for s := 0; s < muxSessions; s++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return ep, err
		}
		clients = append(clients, distributed.NewMuxTransport(nc, wire.MuxOptions{}))
		sc, err := ln.Accept()
		if err != nil {
			return ep, err
		}
		if traced {
			sc = &meteredConn{Conn: sc, m: meter}
		}
		servers = append(servers, distributed.NewMuxTransport(sc, wire.MuxOptions{}))
	}

	loop := &loopClock{traced: traced}
	open := &opener{onOpen: loop.start}
	times := make([]*agentTimes, n)
	agentErrs := make([]error, n)
	for u := 0; u < n; u++ {
		c, err := clients[u%muxSessions].Agent(u)
		if err != nil {
			return ep, err
		}
		ac := &agentConn{Conn: c, open: open}
		if traced {
			times[u] = &agentTimes{}
			ac.times = times[u]
		}
		agents.Add(1)
		go func(u int, c distributed.Conn) {
			defer agents.Done()
			agentErrs[u] = distributed.NewAgent(c, agentConfig(in, u)).Run()
		}(u, ac)
	}

	// Collect every user's link across the sessions, as ServeTCPMux does.
	type link struct {
		conn distributed.Conn
		user int
	}
	links := make(chan link)
	for _, t := range servers {
		acceptors.Add(1)
		go func(t *distributed.MuxTransport) {
			defer acceptors.Done()
			for {
				c, u, err := t.Accept()
				if err != nil {
					return
				}
				select {
				case links <- link{c, u}:
				case <-done:
					return
				}
			}
		}(t)
	}
	rec := &roundRec{}
	conns := make([]distributed.Conn, n)
	deadline := time.After(linkTimeout)
	for got := 0; got < n; got++ {
		select {
		case l := <-links:
			if l.user < 0 || l.user >= n || conns[l.user] != nil {
				return ep, fmt.Errorf("unexpected link for user %d", l.user)
			}
			conns[l.user] = l.conn
			if traced {
				conns[l.user] = &platformConn{Conn: l.conn, rec: rec}
			}
		case <-deadline:
			return ep, fmt.Errorf("only %d of %d agent links opened", got, n)
		}
	}

	var initial []int
	var ends []int64
	var requests, granted int
	traj := newTrajectory()
	observe := func(o distributed.Observation) {
		t := now()
		if o.Slot == 0 {
			initial = o.Choices
			rec.setStart(t)
			ends = append(ends, t)
			return
		}
		ends = append(ends, t)
		requests += o.Requests
		granted += o.Granted
		for _, u := range o.GrantedUsers {
			traj.add(o.Slot, u, o.Choices[u])
		}
		if traced {
			rec.close(t)
		}
	}
	cfg := distributed.PlatformConfig{Policy: distributed.SUU, Seed: platformSeed, Observer: observe}
	if md == modeProbe {
		cfg.MaxSlots = 1
	}
	plat, err := distributed.New(in, conns, distributed.WithConfig(cfg))
	if err != nil {
		return ep, err
	}
	stats, runErr := plat.Run()
	tEnd := now()
	cpu := cpuNs()
	if md == modeProbe {
		for _, t := range servers {
			t.Close()
		}
		agents.Wait()
		return probeResult(t0, open, runErr)
	}
	// Flush the final Terminates before the agents are waited for; after a
	// failed run, close the sessions instead so no agent waits forever.
	for _, t := range servers {
		if runErr != nil {
			t.Close()
		} else if err := t.Drain(); err != nil {
			runErr = fmt.Errorf("flushing the final messages: %w", err)
			t.Close()
		}
	}
	agents.Wait()
	if runErr != nil {
		return ep, runErr
	}
	if err := errors.Join(agentErrs...); err != nil {
		return ep, err
	}
	if !stats.Converged {
		return ep, errors.New("platform did not converge")
	}
	gapNs, err := checkEquilibrium(in, initial, stats.Choices)
	if err != nil {
		return ep, err
	}

	start := open.t.Load()
	ep = episode{setupNs: start - t0, tteNs: tEnd - start, rounds: stats.Slots, cpuNs: cpu - loop.cpu0, fp: traj.h}
	ep.roundMs = diffsMs(ends)
	if len(ep.roundMs) != stats.Slots {
		return ep, fmt.Errorf("observed %d rounds, platform reports %d", len(ep.roundMs), stats.Slots)
	}
	if !traced {
		return ep, nil
	}
	m := map[string]float64{}
	ep.layers, ep.spans = m, &spanLog{}
	pt := newPhaseTotals(platformPhases)
	var msgs int64
	for i, rm := range rec.rounds {
		pt.addRound(ep.spans, i+1, 0, rm.start, rm.end, platformMarks(rm))
		msgs += int64(rm.msgs)
	}
	r := float64(stats.Slots)
	for _, name := range platformPhases {
		m["distributed."+name+"_ms"] = pt.meanMs(name)
	}
	m["distributed.msgs_per_round"] = float64(msgs) / r
	m["distributed.requests_per_round"] = float64(requests) / r
	m["distributed.grant_ratio"] = float64(granted) / float64(requests)
	m["trace.uncovered_pct"] = pt.uncoveredPct()
	m["core.nashgap_ms"] = float64(gapNs) / 1e6
	agentLayers(m, times, stats.Slots)
	loop.runtimeLayers(m, stats.Slots)
	wireLayers(m, meter.snap(), int64(rec.total), stats.Slots)
	return ep, nil
}

// diffsMs returns successive differences of ns timestamps, in ms.
func diffsMs(ts []int64) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, float64(ts[i]-ts[i-1])/1e6)
	}
	return out
}

// --- road workloads: the Shanghai world ---

func roadDataset() (*trace.Dataset, error) {
	return trace.Generate(trace.Shanghai(), worldSeed)
}

// buildScenario is the road workloads' scenario build: a fresh World
// (cold route cache) over the shared dataset, then BuildScenario.
func buildScenario(ds *trace.Dataset, users, tasks int, s *rng.Stream) (*core.Instance, error) {
	w, err := experiments.WorldFromDataset(trace.Shanghai(), ds)
	if err != nil {
		return nil, err
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: users, Tasks: tasks}, s)
	if err != nil {
		return nil, err
	}
	return sc.Instance, nil
}

// --- road-puu-nodes: two ServeNode shards in one process ---

// nodeEpisode runs a two-shard federation: the peer mesh over one
// loopback TCP link, agents through in-memory pipe listeners into the
// real netConn codec.
func nodeEpisode(ds *trace.Dataset, s *rng.Stream, md mode) (ep episode, err error) {
	traced := md == modeTraced
	t0 := now()
	in, err := buildScenario(ds, nodeUsers, nodeTasks, s)
	if err != nil {
		return ep, err
	}
	tScenario := now()
	n := in.NumUsers()
	part, err := federation.Spatial(in, 2)
	if err != nil {
		return ep, err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ep, err
	}
	agentLns := [2]*pipeListener{newPipeListener(), newPipeListener()}
	// Shard 1 dials shard 0 (the higher index dials); its own peer
	// listener never accepts, so it need not be a socket.
	peerLns := [2]net.Listener{tcp, newPipeListener()}
	agentMeter, peerMeter := &wireMeter{}, &wireMeter{}
	recs := [2]*roundRec{{}, {}}
	peers := newPeerRec()
	var serveAgent, servePeer [2]net.Listener
	for s := 0; s < 2; s++ {
		serveAgent[s], servePeer[s] = agentLns[s], peerLns[s]
		if traced {
			rec := recs[s]
			serveAgent[s] = &meteredListener{Listener: agentLns[s], m: agentMeter, onFrame: func(ev frameEvent) {
				rec.event(ev.kind, ev.out, ev.start, ev.end)
			}}
		}
	}
	if traced {
		servePeer[0] = &meteredListener{Listener: tcp, m: peerMeter, onFrame: peers.frame}
	}

	loop := &loopClock{traced: traced}
	open := &opener{onOpen: loop.start}
	var ends [2][]int64
	var transcripts [2]bytes.Buffer
	var stats [2]distributed.NodeStats
	var nodeErrs [2]error
	var returned [2]int64
	var nodes sync.WaitGroup
	addrs := []string{tcp.Addr().String(), "pipe"}
	maxSlots := 0
	if md == modeProbe {
		maxSlots = 1
	}
	for s := 0; s < 2; s++ {
		opts := distributed.NodeOptions{
			Shard: s, Shards: 2, PeerAddrs: addrs, Partition: part,
			Platform:    distributed.PlatformConfig{Policy: distributed.PUU, Seed: platformSeed, MaxSlots: maxSlots},
			PeerTimeout: linkTimeout,
			Transcript:  &transcripts[s],
			ShardObserver: func(o distributed.ShardObservation) {
				t := now()
				ends[s] = append(ends[s], t)
				if traced {
					recs[s].close(t)
				}
			},
		}
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			stats[s], nodeErrs[s] = distributed.ServeNode(serveAgent[s], servePeer[s], in, opts)
			returned[s] = now()
		}()
	}
	times := make([]*agentTimes, n)
	agentErrs := make([]error, n)
	var agents sync.WaitGroup
	for u := 0; u < n; u++ {
		ac := &agentConn{open: open}
		if traced {
			times[u] = &agentTimes{}
			ac.times = times[u]
		}
		agents.Add(1)
		go func() {
			defer agents.Done()
			nc, err := agentLns[part.Assign[u]].Dial()
			if err != nil {
				agentErrs[u] = err
				return
			}
			defer nc.Close()
			ac.Conn = distributed.NewNetConn(nc)
			agentErrs[u] = distributed.NewAgent(ac, agentConfig(in, u)).Run()
		}()
	}
	nodes.Wait()
	tEnd := max(returned[0], returned[1])
	cpu := cpuNs()
	for _, l := range agentLns {
		l.Close()
	}
	agents.Wait()
	if md == modeProbe {
		if !errors.Is(nodeErrs[1], distributed.ErrNoConvergence) {
			return ep, fmt.Errorf("set-up probe: shard 1: %v", nodeErrs[1])
		}
		return probeResult(t0, open, nodeErrs[0])
	}
	if err := errors.Join(nodeErrs[0], nodeErrs[1]); err != nil {
		return ep, err
	}
	if err := errors.Join(agentErrs...); err != nil {
		return ep, err
	}

	// Federation checks: both shards converged in the same slot on
	// identical replicated counts, and those counts are the counts of the
	// merged final routes.
	for s := range stats {
		if !stats[s].Converged {
			return ep, fmt.Errorf("shard %d did not converge", s)
		}
	}
	if stats[0].Slots != stats[1].Slots {
		return ep, fmt.Errorf("shards stopped at slots %d and %d", stats[0].Slots, stats[1].Slots)
	}
	final := make([]int, n)
	for u := range final {
		final[u] = stats[part.Assign[u]].Choices[u]
	}
	prof, err := core.NewProfile(in, final)
	if err != nil {
		return ep, err
	}
	for k := range stats[0].Counts {
		if stats[0].Counts[k] != stats[1].Counts[k] {
			return ep, fmt.Errorf("task %d: shard counts %d and %d differ", k, stats[0].Counts[k], stats[1].Counts[k])
		}
		if c := prof.Count(task.ID(k)); c != stats[0].Counts[k] {
			return ep, fmt.Errorf("task %d: replicated count %d, merged routes give %d", k, stats[0].Counts[k], c)
		}
	}
	initial, slots0, err := parseTranscript(transcripts[0].String(), n)
	if err != nil {
		return ep, err
	}
	initial1, slots1, err := parseTranscript(transcripts[1].String(), n)
	if err != nil {
		return ep, err
	}
	if slots0 != slots1 {
		return ep, errors.New("shards' selection transcripts differ")
	}
	for u, r := range initial1 {
		if r >= 0 {
			initial[u] = r
		}
	}
	gapNs, err := checkEquilibrium(in, initial, final)
	if err != nil {
		return ep, err
	}

	start := open.t.Load()
	ep = episode{setupNs: start - t0, tteNs: tEnd - start, rounds: stats[0].Slots, cpuNs: cpu - loop.cpu0}
	traj := newTrajectory()
	for _, b := range []byte(slots0) {
		traj.add(int(b))
	}
	ep.fp = traj.h
	if len(ends[0]) != stats[0].Slots || len(ends[1]) != stats[0].Slots {
		return ep, fmt.Errorf("observed %d/%d rounds, shards report %d", len(ends[0]), len(ends[1]), stats[0].Slots)
	}
	roundEnds := []int64{start}
	for r := range ends[0] {
		roundEnds = append(roundEnds, max(ends[0][r], ends[1][r]))
	}
	ep.roundMs = diffsMs(roundEnds)
	if !traced {
		return ep, nil
	}

	m := map[string]float64{}
	ep.layers, ep.spans = m, &spanLog{}
	pt := newPhaseTotals(nodePhases)
	var msgs, requests, granted int64
	var skew float64
	for s := 0; s < 2; s++ {
		for i, rm := range recs[s].rounds {
			reqAt, gossipAt := peers.arrivals(s, i+1)
			pt.addRound(ep.spans, i+1, s, rm.start, rm.end, nodeMarks(rm, reqAt, gossipAt))
			msgs += int64(rm.msgs)
		}
		for _, v := range stats[s].RequestsPerSlot {
			requests += int64(v)
		}
		for _, v := range stats[s].SelectedPerSlot {
			granted += int64(v)
		}
	}
	for r := range ends[0] {
		d := ends[0][r] - ends[1][r]
		skew += float64(max(d, -d)) / 1e6
	}
	// Per-shard phase means are averaged over both shards' rounds; the
	// counts are federation totals per round.
	rounds := float64(stats[0].Slots)
	for _, name := range []string{"fanout", "fanin", "decide", "commit", "close"} {
		m["distributed."+name+"_ms"] = pt.meanMs(name)
	}
	m["federation.exchange_ms"] = pt.meanMs("exchange")
	m["federation.barrier_ms"] = pt.meanMs("barrier")
	m["federation.shard_skew_ms"] = skew / rounds
	m["distributed.msgs_per_round"] = float64(msgs) / rounds
	m["distributed.requests_per_round"] = float64(requests) / rounds
	m["distributed.grant_ratio"] = float64(granted) / float64(requests)
	m["trace.uncovered_pct"] = pt.uncoveredPct()
	m["core.nashgap_ms"] = float64(gapNs) / 1e6
	m["roadnet.scenario_build_ms"] = float64(tScenario-t0) / 1e6
	agentLayers(m, times, stats[0].Slots)
	loop.runtimeLayers(m, stats[0].Slots)
	agentD, peerD := agentMeter.snap(), peerMeter.snap()
	peerBytes, peerFrames := peers.traffic(stats[0].Slots + 1)
	wireLayers(m, meterSnap{
		bytes: agentD.bytes + peerBytes, reads: agentD.reads + peerD.reads,
		writes: agentD.writes + peerD.writes, writeNs: agentD.writeNs + peerD.writeNs,
	}, agentD.frames+peerFrames, stats[0].Slots)
	m["federation.peer_bytes_per_round"] = float64(peerBytes) / rounds
	return ep, nil
}

// parseTranscript splits a node's selection transcript into its users'
// initial routes (-1 for users it does not own) and its slot section.
func parseTranscript(t string, users int) ([]int, string, error) {
	initial := make([]int, users)
	for u := range initial {
		initial[u] = -1
	}
	var slots strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(t, "\n"), "\n") {
		var u, r int
		if _, err := fmt.Sscanf(line, "init user %d route %d", &u, &r); err == nil {
			if u < 0 || u >= users {
				return nil, "", fmt.Errorf("transcript names user %d of %d", u, users)
			}
			initial[u] = r
			continue
		}
		if !strings.HasPrefix(line, "slot ") {
			return nil, "", fmt.Errorf("unexpected transcript line %q", line)
		}
		slots.WriteString(line)
		slots.WriteByte('\n')
	}
	return initial, slots.String(), nil
}

// --- road-puu-engine: the paper-experiment path ---

// engineEpisode builds the scenario, draws the initial profile and runs
// PUU to equilibrium through engine.RunFrom. Untraced, the policy is
// engine.NewPUU behind a slot clock; traced, it is tracedPUU.
func engineEpisode(ds *trace.Dataset, s *rng.Stream, md mode) (ep episode, err error) {
	traced := md == modeTraced
	t0 := now()
	in, err := buildScenario(ds, engineUsers, engineTasks, s.Child())
	if err != nil {
		return ep, err
	}
	tScenario := now()
	p := core.RandomProfile(in, s.Child())
	tProfile := now()
	if md == modeProbe {
		// The first slot opens as soon as the initial profile exists.
		return episode{setupNs: tProfile - t0}, nil
	}
	initial := p.Choices()

	loop := &loopClock{traced: traced}
	open := &opener{onOpen: loop.start}
	clock := &slotClock{inner: engine.NewPUU(), open: open, traj: newTrajectory()}
	tp := &tracedPUU{open: open, traj: newTrajectory()}
	var pol engine.Policy = clock
	if traced {
		pol = tp
	}
	res := engine.RunFrom(p, func() engine.Policy { return pol }, s.Child(), engine.Config{})
	tEnd := now()
	cpu := cpuNs()
	if !res.Converged {
		return ep, errors.New("engine did not converge")
	}
	gapNs, err := checkEquilibrium(in, initial, p.Choices())
	if err != nil {
		return ep, err
	}
	start := open.t.Load()
	ep = episode{setupNs: tProfile - t0, tteNs: tEnd - start, rounds: res.Slots, cpuNs: cpu - loop.cpu0, fp: clock.traj.h}
	starts := clock.starts
	if traced {
		ep.fp = tp.traj.h
		starts = starts[:0]
		for _, sl := range tp.slots {
			starts = append(starts, sl.start)
		}
	}
	if len(starts) != res.Slots+1 {
		return ep, fmt.Errorf("policy saw %d slots, engine reports %d", len(starts), res.Slots+1)
	}
	ep.roundMs = diffsMs(starts)
	if !traced {
		return ep, nil
	}

	m := map[string]float64{}
	ep.layers, ep.spans = m, &spanLog{}
	pt := newPhaseTotals(enginePhases)
	var requests, granted int
	for i := 0; i+1 < len(tp.slots); i++ {
		sl := tp.slots[i]
		pt.addRound(ep.spans, i+1, 0, sl.start, tp.slots[i+1].start, []int64{sl.start, sl.collected, sl.selected, sl.applied})
		requests += sl.requests
		granted += sl.granted
	}
	r := float64(res.Slots)
	m["engine.collect_ms"] = pt.meanMs("collect")
	m["engine.select_ms"] = pt.meanMs("select")
	m["engine.requests_per_slot"] = float64(requests) / r
	m["engine.selected_per_slot"] = float64(granted) / r
	var apply []float64
	for _, d := range tp.applyNs {
		apply = append(apply, float64(d)/1e3)
	}
	m["core.apply_us"] = quantile(apply, 0.5)
	m["core.profile_build_ms"] = float64(tProfile-tScenario) / 1e6
	m["core.nashgap_ms"] = float64(gapNs) / 1e6
	m["roadnet.scenario_build_ms"] = float64(tScenario-t0) / 1e6
	m["trace.uncovered_pct"] = pt.uncoveredPct()
	loop.runtimeLayers(m, res.Slots)
	return ep, nil
}
