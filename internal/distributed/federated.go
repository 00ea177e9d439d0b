package distributed

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/distributed/federation"
)

// This file runs the platform inside one process: K ServeNode shards
// meshed over loopback TCP (none at K = 1), each serving its own users'
// agents over the connections the caller hands in. It is the exact
// protocol a multi-process cluster runs; only the agent transport and the
// process boundary differ.

// ShardObservation is the per-shard, per-round report delivered to
// InProcessOptions.ShardObserver and NodeOptions.ShardObserver.
type ShardObservation struct {
	Shard int
	// Slot is the decision slot the observation closes.
	Slot int
	// Requests and Granted count this shard's update requests and granted
	// updates in the slot; Contacted its users sent a SlotInfo.
	Requests  int
	Contacted int
	Granted   int
	// Epoch is the shard's gossip epoch after the round's flush.
	Epoch int
	// PeerLag[p] is how many gossip epochs shard p's ingested state lags
	// this shard's flushes, sampled after the round's gossip barrier
	// (normally all zero; persistent positive values mean a stalled link).
	PeerLag []int
}

// InProcessOptions configures RunInProcess.
type InProcessOptions struct {
	// Shards is the shard count K; 0 or 1 runs one node, which behaves
	// like a standalone platform.
	Shards int
	// Platform carries the per-shard platform configuration. With more
	// than one shard, Observer and ObservePotential must be unset: no
	// shard sees the global profile. Replay FederatedStats.Transcript
	// (ReplayTranscript) instead.
	Platform PlatformConfig
	// Partition overrides user placement; the zero value partitions
	// spatially (federation.Spatial).
	Partition federation.Partition
	// ShardObserver, when non-nil, receives one ShardObservation per shard
	// per round (called from shard goroutines; must be safe for concurrent
	// use).
	ShardObserver func(ShardObservation)
	// OnTopology, when non-nil, receives the resolved partition before the
	// run starts — the web layer uses it to serve shard topology.
	OnTopology func(federation.Partition)
	// AgentSeedBase seeds agent i with AgentSeedBase + i.
	AgentSeedBase uint64
	// Deterministic propagates to every agent (see AgentConfig).
	Deterministic bool
}

// FederatedStats reports an in-process federated run.
type FederatedStats struct {
	// RunStats merges the shards: per-slot requests and grants, updates
	// and traffic are summed, and Choices holds every user's final route.
	RunStats
	// Nodes holds each shard's own view of the run.
	Nodes []NodeStats
	// Transcript is the run's global selection record: every user's init
	// line, then the slot section all shards agreed on. Set when every
	// shard finished cleanly; ReplayTranscript replays it.
	Transcript string
}

// RunInProcess runs the full distributed protocol inside one process:
// max(opts.Shards, 1) ServeNode shards plus one agent goroutine per user,
// connected by channel transports. It blocks until the protocol terminates.
// Every shard's slot transcript must come out byte-identical and every
// shard must end on identical replicated counts. When the platform side
// succeeds, the first agent error is returned.
func RunInProcess(in *core.Instance, opts InProcessOptions) (FederatedStats, error) {
	n := in.NumUsers()
	conns := make([]Conn, n)
	agentErrs := make([]error, n)
	var wg sync.WaitGroup
	for i, u := range in.Users {
		pc, ac := ChanPair(16)
		conns[i] = pc
		a := NewAgent(ac, AgentConfig{
			User:          i,
			Alpha:         u.Alpha,
			Beta:          u.Beta,
			Gamma:         u.Gamma,
			Seed:          opts.AgentSeedBase + uint64(i),
			Deterministic: opts.Deterministic,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			agentErrs[i] = a.Run()
		}()
	}
	stats, err := runNodes(in, opts, conns)
	if err != nil {
		// Unblock agents still waiting on the platform ends.
		for _, c := range conns {
			c.Close()
		}
	}
	wg.Wait()
	for i, e := range agentErrs {
		if e != nil && err == nil {
			err = fmt.Errorf("agent %d: %w", i, e)
		}
	}
	return stats, err
}

// runNodes runs the K shards of a federation over conns, where conns[u] is
// the platform end of user u's agent link; the conns stay open. A failing
// shard aborts its peers. On a clean finish the shards' replicated counts
// and slot transcripts must agree, and the transcripts merge into
// stats.Transcript.
func runNodes(in *core.Instance, opts InProcessOptions, conns []Conn) (stats FederatedStats, err error) {
	if err := in.Validate(); err != nil {
		return stats, fmt.Errorf("distributed: %w", err)
	}
	K := max(opts.Shards, 1)
	if K > 1 && (opts.Platform.Observer != nil || opts.Platform.ObservePotential) {
		return stats, errors.New("distributed: a federation has no global profile to observe; replay FederatedStats.Transcript instead")
	}
	part, err := resolvePartition(in, opts.Partition, K)
	if err != nil {
		return stats, err
	}
	if opts.OnTopology != nil {
		opts.OnTopology(part)
	}
	// A one-shard node has no peers, so it gets no peer listener.
	peerLns := make([]net.Listener, K)
	var addrs []string
	if K > 1 {
		addrs = make([]string, K)
		for k := range peerLns {
			if peerLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				for _, ln := range peerLns[:k] {
					ln.Close()
				}
				return stats, fmt.Errorf("distributed: peer listener: %w", err)
			}
			addrs[k] = peerLns[k].Addr().String()
		}
	}

	stats.Nodes = make([]NodeStats, K)
	errs := make([]error, K)
	transcripts := make([]bytes.Buffer, K)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			owned := make([]Conn, len(part.Owned[k]))
			for i, u := range part.Owned[k] {
				owned[i] = conns[u]
			}
			stats.Nodes[k], errs[k] = serveNode(peerLns[k], in, NodeOptions{
				Shard: k, Shards: K, PeerAddrs: addrs,
				Platform:      opts.Platform,
				Partition:     part,
				ShardObserver: opts.ShardObserver,
				Transcript:    &transcripts[k],
			}, func(federation.Partition) ([]Conn, error) { return owned, nil }, abort)
			// Slot exhaustion ends every shard at the same barrier; only a
			// genuine failure strands the peers.
			if errs[k] != nil && !errors.Is(errs[k], ErrNoConvergence) {
				abortOnce.Do(func() { close(abort) })
			}
		}(k)
	}
	wg.Wait()

	stats.RunStats = mergeNodeStats(stats.Nodes, part)
	// Report the root cause; a peer abort always follows one.
	for k, e := range errs {
		if e != nil && !errors.Is(e, errNodeAborted) {
			return stats, fmt.Errorf("shard %d: %w", k, e)
		}
	}
	for k := 1; k < K; k++ {
		if !slices.Equal(stats.Nodes[k].Counts, stats.Nodes[0].Counts) {
			return stats, fmt.Errorf("distributed: shards 0 and %d ended on different replicated counts", k)
		}
	}
	texts := make([]string, K)
	for k := range transcripts {
		texts[k] = transcripts[k].String()
	}
	stats.Transcript, err = globalTranscript(part, texts)
	return stats, err
}

// mergeNodeStats folds the shards' own views into the run's global
// statistics.
func mergeNodeStats(nodes []NodeStats, part federation.Partition) RunStats {
	rs := RunStats{Converged: true, Choices: make([]int, len(part.Assign))}
	for u := range rs.Choices {
		rs.Choices[u] = -1
	}
	for k, ns := range nodes {
		rs.Converged = rs.Converged && ns.Converged
		rs.Slots = max(rs.Slots, ns.Slots)
		for i, req := range ns.RequestsPerSlot {
			if i == len(rs.RequestsPerSlot) {
				rs.RequestsPerSlot = append(rs.RequestsPerSlot, 0)
				rs.SelectedPerSlot = append(rs.SelectedPerSlot, 0)
				rs.ContactedPerSlot = append(rs.ContactedPerSlot, 0)
			}
			rs.RequestsPerSlot[i] += req
			rs.SelectedPerSlot[i] += ns.SelectedPerSlot[i]
			rs.ContactedPerSlot[i] += ns.ContactedPerSlot[i]
		}
		rs.TotalUpdates += ns.TotalUpdates
		rs.MessagesSent += ns.MessagesSent
		rs.MessagesReceived += ns.MessagesReceived
		if ns.Choices != nil {
			for _, u := range part.Owned[k] {
				rs.Choices[u] = ns.Choices[u]
			}
		}
	}
	return rs
}
