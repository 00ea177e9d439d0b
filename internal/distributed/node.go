package distributed

import (
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file is the sharded federation of Algorithm 2: users are
// partitioned across K platform shards (internal/distributed/federation
// decides ownership, spatially by default), and ServeNode runs ONE shard,
// serving its own users' agents and connected to its peers over TCP
// through the peer mesh of peerlink.go. A multi-process cluster runs one
// ServeNode per process; RunInProcess (federated.go) runs all K in one
// process. ServeTCP and a standalone Platform.Run are the peerless K=1
// case: the same init-and-round sequence (nodeRun.run), with no peer to
// exchange requests or gossip with. The round structure is
// bulk-synchronous, and with no central selector the selection stays
// globally exact through a symmetric-broadcast argument:
//
//  1. Every shard collects its own users' improvement requests, then
//     broadcasts them to every peer as one wire.ShardRequests batch (users
//     in ascending order).
//  2. Every shard merges the K batches in shard order and runs the global
//     selection policy on the identical merged sequence. Deterministic
//     policies (PUU, DET) and the seeded SUU draw (same Seed everywhere)
//     therefore produce the SAME winner set on every shard without any
//     cross-shard agreement step.
//  3. Each shard grants and commits only its own winners, flushes its
//     count-delta batch to every peer, and ingests every peer's batch
//     before the next round opens (the gossip barrier).
//
// Because every replica has ingested all peer batches when a round opens,
// counts are globally exact at round start and stale only within a round —
// and a round's simultaneous moves touch disjoint task sets (PUU) or are a
// single move (SUU/DET), so each mover's ΔΦ is computed against counts
// that are exact for its own tasks. Theorem 2's potential ascent, the
// Theorem 4 slot bound, and the zero-Nash-gap-at-termination argument
// therefore carry over shard-count-independently: a federation converges
// to the same equilibria a standalone platform does, and terminates only
// when no user anywhere can improve against exact counts.
//
// Round stamping: gossip frames carry the decision round they close in the
// envelope's Epoch header field, separate from the store epoch inside the
// GossipDelta payload. The barrier for round r waits, per peer, for a
// batch stamped >= r. The distinction matters after a crash: a recovered
// shard's store epoch continues its previous incarnation's sequence and
// can run ahead of the round counter, so rounds — not store epochs — are
// what the barrier must key on.
//
// Crash recovery (-resume): a restarted shard reconnects to every peer
// with a resume hello, collects one state snapshot per peer, and adopts
// the one that knows the most about its own pre-crash flushes (max
// Epochs[self]). It then synthesizes exact catch-up deltas for peers whose
// snapshots were staler than the adopted one (federation.CatchUp), retracts
// its dead incarnation's entire contribution (Store.RebaseSelf), handshakes
// a fresh agent fleet, and broadcasts retraction + fresh initial decisions
// as one batch before rejoining the round structure at the minimum round
// any peer reported. Within the fault window winner sets may diverge
// across shards (each shard still only grants its own users, so the run
// stays coherent); the replicated counts re-converge exactly at the next
// common barrier, which the multi-process chaos harness asserts.

// NodeOptions configures ServeNode — one shard process of a multi-node
// federation.
type NodeOptions struct {
	// Shard is this node's index; Shards the federation size K.
	Shard, Shards int
	// PeerAddrs holds every shard's peer-mesh address, indexed by shard
	// (length K). The entry at Shard is informational — this node's own
	// peer listener is passed to ServeNode already bound. A one-shard node
	// may leave it nil.
	PeerAddrs []string
	// Platform carries the shard-local platform configuration. Policy and
	// Seed MUST match across all nodes: winner selection is computed
	// independently on every shard from the identical merged request
	// sequence. With K > 1 its Observer and ObservePotential are ignored:
	// no shard sees the global profile.
	Platform PlatformConfig
	// Partition overrides user placement; the zero value partitions
	// spatially (federation.Spatial). Every node (and the front door)
	// derives the identical partition from the shared instance.
	Partition federation.Partition
	// Resume rejoins a running federation after a crash: peers are asked
	// for state snapshots and the round structure is re-entered where the
	// federation currently is. Incompatible with SUU (the selection RNG's
	// draw history died with the previous incarnation) and with K=1.
	Resume bool
	// PeerRetry is the redial interval for down peer links (default
	// 100ms). PeerTimeout bounds every wait on a peer — link
	// establishment, snapshots, request batches, the gossip barrier —
	// and therefore how long a crashed peer may stay down (default 2m).
	PeerRetry   time.Duration
	PeerTimeout time.Duration
	// SlotDelay inserts a pause before each decision slot. The chaos
	// harness uses it to stretch runs so a kill lands mid-protocol.
	SlotDelay time.Duration
	// OnTopology receives the resolved partition before the run starts.
	OnTopology func(federation.Partition)
	// ShardObserver receives this shard's per-round observation.
	ShardObserver func(ShardObservation)
	// PeerObserver receives peer-link liveness transitions and per-round
	// peer state; the web layer serves it at /api/v1/shards.
	PeerObserver func(PeerStatus)
	// Transcript, when non-nil, receives the selection transcript: one
	// "init user U route R" line per owned user after the handshake, then
	// one "slot S user U route R" line per granted update, in grant
	// order, for the GLOBAL winner set. R is the adopted route for owned
	// users and the requested route for peers' users; the two differ only
	// for a crashed-and-restarted winner that re-evaluated its move. Clean
	// same-seed runs produce byte-identical slot sections on every shard
	// and across multi-node and in-process federated runs, and DET runs
	// match the standalone platform at any K — the determinism regression
	// the node and e2e tests enforce. ReplayTranscript replays one.
	Transcript io.Writer
}

// NodeStats reports one node's view of a completed multi-node run. The
// embedded RunStats counts this shard's own users (requests, grants,
// traffic); Choices has this shard's owned users filled in and -1
// elsewhere (a shard never learns peer users' initial routes).
type NodeStats struct {
	RunStats
	Shard, Shards int
	// Resumed reports a crash-recovery rejoin; RejoinRound is the round
	// the node re-entered the federation at.
	Resumed     bool
	RejoinRound int
	// GossipBatches counts peer delta batches ingested; Reconnects counts
	// peer-link re-establishments after the first connection.
	GossipBatches int
	Reconnects    int
	// Counts is the final replicated per-task count view. After a clean
	// run it is identical on every node — the cross-shard convergence
	// check the chaos harness keys on.
	Counts []int
}

// nodeRun carries the per-run state of one ServeNode call, or of a
// standalone Platform.Run, which is a node without peers.
type nodeRun struct {
	opts NodeOptions
	st   *federation.Store
	mesh *peerMesh
	plat *Platform
	tw   transcriptWriter
	// reqStash parks request batches that arrived ahead of the round the
	// node is collecting (the peer is at most one round ahead).
	reqStash map[int]map[int]*wire.ShardRequests
	stats    NodeStats
}

// ServeNode runs shard opts.Shard of a K-node federation: it establishes
// the peer mesh (recovering state from peers first when opts.Resume is
// set), accepts its owned users' agent links on agentLn (plain agent
// connections or mux sessions, see acceptLinks), and drives the symmetric
// federated protocol to completion. It takes ownership of both listeners
// and of the accepted connections: agentLn closes once the owned users are
// linked, everything else on return. A one-shard node has no peers and
// may take a nil peerLn.
func ServeNode(agentLn, peerLn net.Listener, in *core.Instance, opts NodeOptions) (NodeStats, error) {
	defer agentLn.Close()
	var links agentLinks
	defer links.close()
	return serveNode(peerLn, in, opts, func(part federation.Partition) ([]Conn, error) {
		var err error
		links, err = acceptLinks(agentLn, part.Owned[opts.Shard])
		return links.conns, err
	}, nil)
}

// serveNode is ServeNode after the accept step: agents supplies the owned
// users' connections, in owned-user order, once the peer mesh is up. The
// connections belong to the caller and stay open on return — closing them
// here would race the agents' reads of the final Terminate. serveNode owns
// peerLn (nil for a one-shard node). Closing abort (nil = never) fails
// every pending peer wait with errNodeAborted, so a co-located shard's
// failure ends this one promptly.
//
// The stats result is named: the deferred peer-reconnect count below must
// land after the return statement has copied f.stats into it.
func serveNode(peerLn net.Listener, in *core.Instance, opts NodeOptions, agents func(federation.Partition) ([]Conn, error), abort <-chan struct{}) (stats NodeStats, err error) {
	if peerLn != nil {
		defer peerLn.Close()
	}
	stats = NodeStats{Shard: opts.Shard, Shards: opts.Shards}
	if err := in.Validate(); err != nil {
		return stats, fmt.Errorf("distributed: %w", err)
	}
	K := opts.Shards
	if K < 1 {
		return stats, fmt.Errorf("distributed: node needs Shards >= 1, have %d", K)
	}
	if opts.Shard < 0 || opts.Shard >= K {
		return stats, fmt.Errorf("distributed: shard index %d out of range [0,%d)", opts.Shard, K)
	}
	if peerLn == nil && K > 1 {
		return stats, fmt.Errorf("distributed: shard %d of %d needs a peer listener", opts.Shard, K)
	}
	if opts.PeerAddrs == nil {
		opts.PeerAddrs = []string{""}
	}
	if len(opts.PeerAddrs) != K {
		return stats, fmt.Errorf("distributed: %d peer addresses for %d shards", len(opts.PeerAddrs), K)
	}
	if opts.Resume {
		if K == 1 {
			return stats, fmt.Errorf("distributed: -resume needs a peer to recover from (K=1)")
		}
		if policy := opts.Platform.Policy; policy == SUU || policy == "" {
			return stats, fmt.Errorf("distributed: -resume is incompatible with SUU (the selection RNG's draw history is lost; use PUU or DET)")
		}
	}
	part, err := resolvePartition(in, opts.Partition, K)
	if err != nil {
		return stats, err
	}
	if opts.OnTopology != nil {
		opts.OnTopology(part)
	}
	st, err := federation.NewStore(in.NumTasks(), opts.Shard, K)
	if err != nil {
		return stats, err
	}
	if opts.PeerRetry <= 0 {
		opts.PeerRetry = 100 * time.Millisecond
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 2 * time.Minute
	}

	f := &nodeRun{
		opts:     opts,
		st:       st,
		tw:       transcriptWriter{w: opts.Transcript},
		reqStash: make(map[int]map[int]*wire.ShardRequests),
		stats:    stats,
	}
	f.mesh = newPeerMesh(peerLn, opts.Shard, opts.PeerAddrs, opts.PeerRetry, opts.PeerTimeout, st, opts.Resume, opts.PeerObserver, abort)
	defer f.mesh.close()
	defer func() {
		for _, l := range f.mesh.links {
			stats.Reconnects += f.mesh.status(l).Reconnects
		}
	}()
	if err := f.mesh.awaitConnected(); err != nil {
		return f.stats, err
	}

	startSlot := 1
	if opts.Resume {
		if startSlot, err = f.recover(); err != nil {
			return f.stats, err
		}
		f.stats.Resumed, f.stats.RejoinRound = true, startSlot
	}
	f.mesh.round.Store(int64(startSlot))

	// Agent handshake: attach exactly the owned users, then run the
	// standard init phase over them.
	conns, err := agents(part)
	if err != nil {
		return f.stats, err
	}
	// A shard of K > 1 sees only its own users' routes, so it has no
	// global profile to observe; a one-shard node observes like a
	// standalone platform.
	shardCfg := opts.Platform
	if K > 1 {
		shardCfg.Observer = nil
		shardCfg.ObservePotential = false
	}
	f.plat, err = newPlatform(in, conns, shardCfg, part.Owned[opts.Shard], st)
	if err != nil {
		return f.stats, fmt.Errorf("distributed: shard %d: %w", opts.Shard, err)
	}
	err = f.run(startSlot)
	return f.stats, err
}

// run executes Algorithm 2 on this node from startSlot: the init phase
// over the served users, the init observation and transcript lines, the
// init gossip flush, and the round loop. It is the one init-and-round
// sequence of ServeNode and of a standalone Platform.Run.
func (f *nodeRun) run(startSlot int) error {
	plat := f.plat
	defer func() {
		f.stats.MessagesSent = int(plat.tel.runSent.Value())
		f.stats.MessagesReceived = int(plat.tel.runRecv.Value())
	}()
	initStart := time.Now()
	if err := plat.runInit(); err != nil {
		return err
	}
	plat.observe(0, 0, nil, time.Since(initStart))
	for _, u := range plat.users {
		f.tw.printf("init user %d route %d\n", u, plat.choices[u])
	}
	// Broadcast the initial count batch. A fresh federation stamps it
	// round 0 and crosses the init barrier so round 1 opens on globally
	// exact counts; a recovered shard stamps it startSlot-1 — retraction
	// of the dead incarnation plus the fresh fleet's initial decisions in
	// one batch — and skips the barrier (its peers are parked mid-round,
	// not flushing). Without peers the flush only closes the init epoch.
	f.mesh.broadcastGossip(f.st.Flush(), startSlot-1)
	if !f.opts.Resume {
		if err := f.barrier(0); err != nil {
			return err
		}
	}
	if err := f.slotLoop(startSlot); err != nil {
		return err
	}
	if f.tw.err != nil {
		return fmt.Errorf("distributed: transcript: %w", f.tw.err)
	}
	return nil
}

// resolvePartition returns the user placement for a K-shard federation:
// p when it is set (it must have K shards), the spatial partition
// otherwise.
func resolvePartition(in *core.Instance, p federation.Partition, K int) (federation.Partition, error) {
	if p.Shards == 0 {
		var err error
		if p, err = federation.Spatial(in, K); err != nil {
			return p, err
		}
	} else if p.Shards != K {
		return p, fmt.Errorf("distributed: partition has %d shards, options ask for %d", p.Shards, K)
	}
	return p, p.Validate(in)
}

// recover rebuilds this node's replica from its peers and returns the
// round to rejoin at. See the file comment for the full sequence.
func (f *nodeRun) recover() (int, error) {
	K := f.opts.Shards
	snaps := make(map[int]*wire.Snapshot, K-1)
	for p, l := range f.mesh.links {
		sn, err := recvPeer(l, l.snapCh, "snapshot", f.opts.PeerTimeout)
		if err != nil {
			return 0, err
		}
		if sn.Shard != p {
			return 0, fmt.Errorf("distributed: snapshot from link %d claims shard %d", p, sn.Shard)
		}
		snaps[p] = sn
	}
	// Adopt the snapshot that knows the most about our own pre-crash
	// flushes, so the epoch sequence continues without a gap (ties break
	// to the lowest peer index for determinism).
	self := f.opts.Shard
	adoptedFrom := -1
	var adopted *wire.Snapshot
	for p := 0; p < K; p++ {
		sn, ok := snaps[p]
		if !ok || self >= len(sn.Epochs) {
			continue
		}
		if adopted == nil || sn.Epochs[self] > adopted.Epochs[self] {
			adopted, adoptedFrom = sn, p
		}
	}
	if adopted == nil {
		return 0, fmt.Errorf("distributed: no usable snapshot among %d peers", len(snaps))
	}
	if err := f.st.Restore(adopted); err != nil {
		return 0, fmt.Errorf("distributed: adopting shard %d's snapshot: %w", adoptedFrom, err)
	}
	// Rejoin at the earliest round any peer is still executing; peers
	// ahead of it re-deliver what this round needs via their replay rings.
	rejoin := snaps[adoptedFrom].Round
	for _, sn := range snaps {
		if sn.Round < rejoin {
			rejoin = sn.Round
		}
	}
	if rejoin < 1 {
		rejoin = 1
	}
	// Close stale peers' epoch gaps: peers that missed our dead
	// incarnation's final batches get them re-synthesized from the
	// contribution ledgers. Stamped rejoin-1 so no parked barrier (waiting
	// on round >= rejoin) releases before the retraction below arrives.
	for p, l := range f.mesh.links {
		deltas, err := federation.CatchUp(self, adopted, snaps[p])
		if err != nil {
			return 0, fmt.Errorf("distributed: catch-up for shard %d: %w", p, err)
		}
		for _, d := range deltas {
			l.sendGossip(&wire.Message{Kind: wire.KindGossipDelta, Epoch: uint32(rejoin - 1), From: -1, GossipDelta: d})
		}
	}
	// Retract the dead incarnation's contribution; the fresh fleet's
	// initial decisions land in the same pending batch and both travel in
	// the init flush after the agent handshake.
	f.st.RebaseSelf()
	f.mesh.resume.Store(false)
	return rejoin, nil
}

// slotLoop drives decision slots from startSlot until global equilibrium
// or slot exhaustion (Algorithm 2 lines 5–12).
func (f *nodeRun) slotLoop(startSlot int) error {
	plat := f.plat
	maxSlots := plat.cfg.MaxSlots
	self := f.opts.Shard
	for slot := startSlot; slot <= maxSlots; slot++ {
		f.mesh.round.Store(int64(slot))
		if f.opts.SlotDelay > 0 {
			time.Sleep(f.opts.SlotDelay)
		}
		slotTimer := telemetry.StartSpan(plat.tel.slotDuration)
		own, err := plat.collectRequests(slot)
		if err != nil {
			return err
		}
		if len(f.mesh.links) > 0 {
			f.mesh.broadcastRequests(ownBatch(self, slot, own))
		}
		// Merge all shards' batches in shard order: every node sees the
		// identical sequence, so the selection below agrees everywhere.
		var merged []engine.Request
		for q := 0; q < f.opts.Shards; q++ {
			if q == self {
				merged = append(merged, own...)
				continue
			}
			sr, err := f.peerBatch(q, slot)
			if err != nil {
				return err
			}
			for _, r := range sr.Reqs {
				merged = append(merged, engine.Request{User: core.UserID(r.User), Route: r.Route, Tau: r.Tau, B: r.B})
			}
		}
		if len(merged) == 0 {
			// Global equilibrium: no user anywhere can improve against
			// exact round-start counts. Terminate the owned fleet and send
			// the farewell marker, which turns a diverged peer that is
			// still running slot+1 into a fast failure instead of a hang.
			if err := plat.terminate(slot); err != nil {
				return err
			}
			f.mesh.broadcastRequests(&wire.ShardRequests{Shard: self, Slot: slot + 1, Terminating: true})
			slotTimer.End()
			f.stats.Converged = true
			f.finishChoices()
			return nil
		}
		selSpan := telemetry.StartSpan(plat.tel.selectionTime)
		winners := selectWinners(plat.cfg.Policy, plat.rnd, merged)
		selSpan.End()
		ownWinners := winners[:0:0]
		for _, w := range winners {
			if plat.local[w.User] >= 0 {
				ownWinners = append(ownWinners, w)
			}
		}
		moves, err := plat.commitSlot(slot, ownWinners)
		if err != nil {
			return err
		}
		// Own winners are logged with the route they adopted — a
		// crashed-and-restarted winner may re-evaluate its move — and
		// peers' winners with the route they requested. moves follows
		// ownWinners' order.
		for _, w := range winners {
			route := w.Route
			if plat.local[w.User] >= 0 {
				route, moves = moves[0].Route, moves[1:]
			}
			f.tw.printf("slot %d user %d route %d\n", slot, w.User, route)
		}
		f.mesh.broadcastGossip(f.st.Flush(), slot)
		if err := f.barrier(slot); err != nil {
			return err
		}
		elapsed := slotTimer.End()
		f.stats.Slots = slot
		f.stats.RequestsPerSlot = append(f.stats.RequestsPerSlot, len(own))
		f.stats.SelectedPerSlot = append(f.stats.SelectedPerSlot, len(ownWinners))
		f.stats.ContactedPerSlot = append(f.stats.ContactedPerSlot, len(plat.contacts))
		f.stats.TotalUpdates += len(ownWinners)
		plat.observe(slot, len(merged), winners, elapsed)
		if f.opts.ShardObserver != nil {
			f.opts.ShardObserver(ShardObservation{
				Shard:     self,
				Slot:      slot,
				Requests:  len(own),
				Contacted: len(plat.contacts),
				Granted:   len(ownWinners),
				Epoch:     f.st.Epoch(),
				PeerLag:   f.st.PeerLag(),
			})
		}
		if f.opts.PeerObserver != nil {
			for _, l := range f.mesh.links {
				f.opts.PeerObserver(f.mesh.status(l))
			}
		}
	}
	f.finishChoices()
	return fmt.Errorf("distributed: %w (%d slots, shard %d/%d)", ErrNoConvergence, maxSlots, self, f.opts.Shards)
}

// peerBatch returns shard q's request batch for the given slot, reading
// (and stashing ahead-of-round arrivals) from the peer's inbox. Batches
// for earlier slots are stale replays and are dropped; a farewell marker
// at or before this slot means the peer reached equilibrium while this
// shard still holds improvement requests — a divergence that only a
// mid-recovery fault window can produce, surfaced as an error.
func (f *nodeRun) peerBatch(q, slot int) (*wire.ShardRequests, error) {
	if sr, ok := f.reqStash[q][slot]; ok {
		delete(f.reqStash[q], slot)
		if sr.Terminating {
			return nil, fmt.Errorf("distributed: shard %d terminated at slot %d, this shard is still improving", q, sr.Slot-1)
		}
		return sr, nil
	}
	l := f.mesh.links[q]
	for {
		sr, err := recvPeer(l, l.reqCh, "requests", f.opts.PeerTimeout)
		if err != nil {
			return nil, err
		}
		switch {
		case sr.Slot < slot:
			// Stale replay of a batch this node already consumed.
		case sr.Slot == slot:
			if sr.Terminating {
				return nil, fmt.Errorf("distributed: shard %d terminated at slot %d, this shard is still improving", q, sr.Slot-1)
			}
			return sr, nil
		default:
			if f.reqStash[q] == nil {
				f.reqStash[q] = make(map[int]*wire.ShardRequests)
			}
			if _, dup := f.reqStash[q][sr.Slot]; !dup {
				f.reqStash[q][sr.Slot] = sr
			}
		}
	}
}

// barrier crosses the gossip barrier for one round: per peer, ingest delta
// batches until one stamped with this round (or later) has landed. Epoch
// dedup in the store absorbs replayed duplicates; the round stamp — not
// the store epoch — decides release, because a recovered peer's epochs
// run ahead of its rounds.
func (f *nodeRun) barrier(round int) error {
	for p, l := range f.mesh.links {
		for {
			m, err := recvPeer(l, l.gossipCh, "gossip", f.opts.PeerTimeout)
			if err != nil {
				return err
			}
			if m.GossipDelta.Shard != p {
				return fmt.Errorf("distributed: link to shard %d carried shard %d's batch", p, m.GossipDelta.Shard)
			}
			if err := f.st.Ingest(m.GossipDelta); err != nil {
				return err
			}
			f.stats.GossipBatches++
			if int(m.Epoch) >= round {
				break
			}
		}
	}
	return nil
}

// finishChoices publishes the served users' final routes (-1 for users
// served by peer shards).
func (f *nodeRun) finishChoices() {
	f.stats.Choices = make([]int, f.plat.in.NumUsers())
	for u := range f.stats.Choices {
		f.stats.Choices[u] = -1
	}
	for _, u := range f.plat.users {
		f.stats.Choices[u] = f.plat.choices[u]
	}
	f.stats.Counts = f.st.View(nil)
}

// ownBatch converts this shard's collected requests into the broadcast
// form. collectRequests walks conns in owned-user order, which is
// ascending, but sort defensively: the merged sequence must be identical
// on every shard.
func ownBatch(shard, slot int, reqs []engine.Request) *wire.ShardRequests {
	sr := &wire.ShardRequests{Shard: shard, Slot: slot}
	if len(reqs) > 0 {
		sr.Reqs = make([]wire.ShardRequest, len(reqs))
		for i, r := range reqs {
			sr.Reqs[i] = wire.ShardRequest{User: int(r.User), Route: r.Route, Tau: r.Tau, B: r.B}
		}
		sort.Slice(sr.Reqs, func(i, j int) bool { return sr.Reqs[i].User < sr.Reqs[j].User })
	}
	return sr
}
