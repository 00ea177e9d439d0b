package web

import (
	"net/http"
	"time"

	"repro/internal/distributed"
	"repro/internal/distributed/federation"
)

// This file is the federation surface of the v1 API. A sharded platform
// wires two extra hooks into the server — OnTopology and ShardObserver of
// distributed.InProcessOptions or distributed.NodeOptions — and the server
// then reports the shard count in /api/v1/status and serves the full shard
// topology plus live per-shard state at /api/v1/shards.

// ShardStatus is one shard's entry in the /api/v1/shards payload: the
// static ownership from the partition plus the live per-round state fed by
// the shard observer.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Users is the number of users this shard serves; UserIDs lists them
	// in ascending order.
	Users   int   `json:"users"`
	UserIDs []int `json:"user_ids,omitempty"`

	// Live state (zero until the shard's first observed round).

	// Slot is the shard's last committed decision slot.
	Slot int `json:"slot"`
	// Requests and Granted refer to the last committed slot.
	Requests int `json:"requests"`
	Granted  int `json:"granted"`
	// TotalUpdates accumulates this shard's granted updates.
	TotalUpdates int `json:"total_updates"`
	// Epoch is the shard's gossip epoch after its last round barrier.
	Epoch int `json:"epoch"`
	// PeerLag[p] is how many gossip epochs peer p lagged at the last
	// barrier (all zero on a healthy mesh).
	PeerLag []int `json:"peer_lag,omitempty"`
	// UpdatedAt is the time of the last shard observation.
	UpdatedAt time.Time `json:"updated_at,omitempty"`
}

// PeerStatus is one peer link's entry in the /api/v1/shards payload,
// present only on a multi-node federation member (platformd -shard): link
// liveness plus the peer's replication progress as seen from this node.
type PeerStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// Connected is the link state at the last observation; Reconnects
	// counts re-establishments after the first connect (0 on a mesh that
	// never dropped).
	Connected  bool `json:"connected"`
	Reconnects int  `json:"reconnects"`
	// LastContact is when the peer last delivered a frame.
	LastContact time.Time `json:"last_contact,omitempty"`
	// Epoch is the peer's highest gossip epoch ingested here; Lag is how
	// far it trails this node's own epoch (0 on a healthy mesh).
	Epoch int `json:"epoch"`
	Lag   int `json:"lag"`
	// UpdatedAt is the time of the last peer observation.
	UpdatedAt time.Time `json:"updated_at,omitempty"`
}

// ShardsPayload is the /api/v1/shards document.
type ShardsPayload struct {
	// Shards is the shard count K; 0 means the platform is not federated
	// (standalone runs never call SetTopology).
	Shards int           `json:"shards"`
	Detail []ShardStatus `json:"detail,omitempty"`
	// Peers reports this node's peer links in a multi-node federation;
	// empty for in-process federations and standalone runs.
	Peers []PeerStatus `json:"peers,omitempty"`
}

// SetTopology installs the resolved user partition; plug it into
// distributed.InProcessOptions.OnTopology or NodeOptions.OnTopology. It
// resets any previous shard state, so a restarted federation starts from a
// clean topology.
func (s *Server) SetTopology(part federation.Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status.Shards = part.Shards
	s.shards = make([]ShardStatus, part.Shards)
	for k := range s.shards {
		owned := append([]int(nil), part.Owned[k]...)
		s.shards[k] = ShardStatus{Shard: k, Users: len(owned), UserIDs: owned}
	}
}

// ShardObserver returns the callback to plug into
// distributed.InProcessOptions.ShardObserver or NodeOptions.ShardObserver.
// It is safe for concurrent use (shards observe from their own
// goroutines).
func (s *Server) ShardObserver() func(distributed.ShardObservation) {
	return func(o distributed.ShardObservation) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if o.Shard < 0 || o.Shard >= len(s.shards) {
			return
		}
		sh := &s.shards[o.Shard]
		sh.Slot = o.Slot
		sh.Requests = o.Requests
		sh.Granted = o.Granted
		sh.TotalUpdates += o.Granted
		sh.Epoch = o.Epoch
		sh.PeerLag = append(sh.PeerLag[:0], o.PeerLag...)
		sh.UpdatedAt = s.now()
	}
}

// PeerObserver returns the callback to plug into
// distributed.NodeOptions.PeerObserver on a multi-node federation member.
// Observations are keyed by peer shard index; the slice grows on demand,
// so no topology call is needed before the first link comes up.
func (s *Server) PeerObserver() func(distributed.PeerStatus) {
	return func(o distributed.PeerStatus) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if o.Shard < 0 {
			return
		}
		for len(s.peers) <= o.Shard {
			s.peers = append(s.peers, PeerStatus{Shard: len(s.peers)})
		}
		s.peers[o.Shard] = PeerStatus{
			Shard:       o.Shard,
			Addr:        o.Addr,
			Connected:   o.Connected,
			Reconnects:  o.Reconnects,
			LastContact: o.LastContact,
			Epoch:       o.Epoch,
			Lag:         o.Lag,
			UpdatedAt:   s.now(),
		}
	}
}

// ShardsSnapshot returns a copy of the current federation state.
func (s *Server) ShardsSnapshot() ShardsPayload {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := ShardsPayload{Shards: s.status.Shards}
	for _, sh := range s.shards {
		sh.UserIDs = append([]int(nil), sh.UserIDs...)
		sh.PeerLag = append([]int(nil), sh.PeerLag...)
		p.Detail = append(p.Detail, sh)
	}
	for _, pe := range s.peers {
		if pe.Addr == "" && !pe.Connected {
			continue // grow-on-demand placeholder, never observed
		}
		p.Peers = append(p.Peers, pe)
	}
	return p
}

// registerShards adds the federation routes to the v1 mux.
func (s *Server) registerShards(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/shards", getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.ShardsSnapshot())
	}))
}
