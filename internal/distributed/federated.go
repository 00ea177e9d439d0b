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

// This file runs the sharded federation (node.go) inside one process: K
// ServeNode shards meshed over loopback TCP, each serving its own users'
// agents over the connections the caller hands in. It is the exact
// protocol a multi-process cluster runs; only the agent transport and the
// process boundary differ.

// ShardObservation is the per-shard, per-round report delivered to
// FederatedOptions.ShardObserver and NodeOptions.ShardObserver.
type ShardObservation struct {
	Shard int
	// Slot is the decision slot the observation closes.
	Slot int
	// Requests and Granted count this shard's update requests and granted
	// updates in the slot.
	Requests int
	Granted  int
	// Epoch is the shard's gossip epoch after the round's flush.
	Epoch int
	// PeerLag[p] is how many gossip epochs shard p's ingested state lags
	// this shard's flushes, sampled after the round's gossip barrier
	// (normally all zero; persistent positive values mean a stalled link).
	PeerLag []int
}

// FederatedOptions configures RunFederatedInProcess.
type FederatedOptions struct {
	// Shards is the shard count K; 0 or 1 runs a single-shard federation
	// (the federated code path with no peers, useful as a baseline).
	Shards int
	// Platform carries the per-shard platform configuration. With more
	// than one shard, Observer and ObservePotential must be unset: no
	// shard sees the global profile. Replay FederatedStats.Transcript
	// (ReplayTranscript) instead. A one-shard federation observes like a
	// standalone platform.
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

// RunFederatedInProcess runs a K-shard federation inside one process: K
// ServeNode shards plus one agent goroutine per user, connected by channel
// transports. The platform configuration comes from fopts.Platform; aopts
// contributes only the agent-side knobs (AgentSeedBase, Deterministic,
// DupProb). Every shard's slot transcript must come out byte-identical and
// every shard must end on identical replicated counts.
func RunFederatedInProcess(in *core.Instance, fopts FederatedOptions, aopts InProcessOptions) (FederatedStats, error) {
	conns, finish := startInProcessAgents(in, aopts)
	stats, err := runNodes(in, fopts, conns)
	return stats, finish(err)
}

// runNodes runs the K shards of a federation over conns, where conns[u] is
// the platform end of user u's agent link; the conns stay open. A failing
// shard aborts its peers. On a clean finish the shards' replicated counts
// and slot transcripts must agree, and the transcripts merge into
// stats.Transcript.
func runNodes(in *core.Instance, opts FederatedOptions, conns []Conn) (stats FederatedStats, err error) {
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
	peerLns := make([]net.Listener, K)
	addrs := make([]string, K)
	for k := range peerLns {
		if peerLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range peerLns[:k] {
				ln.Close()
			}
			return stats, fmt.Errorf("distributed: peer listener: %w", err)
		}
		addrs[k] = peerLns[k].Addr().String()
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
			}
			rs.RequestsPerSlot[i] += req
			rs.SelectedPerSlot[i] += ns.SelectedPerSlot[i]
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
