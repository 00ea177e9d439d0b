package web

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/distributed/federation"
	"repro/internal/rng"
)

func getShards(t *testing.T, url string) ShardsPayload {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var p ShardsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardsEndpointStandalone checks the endpoint exists and reports a
// non-federated platform as zero shards.
func TestShardsEndpointStandalone(t *testing.T) {
	_, ts := testServer()
	defer ts.Close()
	if p := getShards(t, ts.URL); p.Shards != 0 || len(p.Detail) != 0 {
		t.Errorf("standalone shards payload = %+v", p)
	}
}

// TestShardsTopologyAndObservations feeds the two federation hooks by hand
// and checks the payload and the status shard count.
func TestShardsTopologyAndObservations(t *testing.T) {
	s, ts := testServer()
	defer ts.Close()

	part, err := federation.ByIndex(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTopology(part)
	so := s.ShardObserver()
	so(distributed.ShardObservation{Shard: 0, Slot: 1, Requests: 3, Granted: 2, Epoch: 2, PeerLag: []int{0}})
	so(distributed.ShardObservation{Shard: 0, Slot: 2, Requests: 1, Granted: 1, Epoch: 3, PeerLag: []int{0}})
	so(distributed.ShardObservation{Shard: 1, Slot: 2, Requests: 2, Granted: 0, Epoch: 3, PeerLag: []int{1}})
	so(distributed.ShardObservation{Shard: 9, Slot: 1}) // out of range: ignored

	p := getShards(t, ts.URL)
	if p.Shards != 2 || len(p.Detail) != 2 {
		t.Fatalf("payload = %+v", p)
	}
	sh0 := p.Detail[0]
	if sh0.Users != len(part.Owned[0]) || sh0.Slot != 2 || sh0.TotalUpdates != 3 || sh0.Epoch != 3 {
		t.Errorf("shard 0 = %+v", sh0)
	}
	sh1 := p.Detail[1]
	if sh1.Granted != 0 || len(sh1.PeerLag) != 1 || sh1.PeerLag[0] != 1 {
		t.Errorf("shard 1 = %+v", sh1)
	}

	resp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Errorf("status shards = %d, want 2", st.Shards)
	}

	// A re-installed topology resets the live state.
	s.SetTopology(part)
	if p := getShards(t, ts.URL); p.Detail[0].TotalUpdates != 0 {
		t.Errorf("topology reset kept stale state: %+v", p.Detail[0])
	}
}

// TestShardsEndToEnd runs a real federated convergence with the server
// plugged into both federation hooks and checks the served state is
// consistent with the run.
func TestShardsEndToEnd(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(12, 6), rng.New(77))
	s, ts := testServer()
	defer ts.Close()

	stats, err := distributed.RunInProcess(in, distributed.InProcessOptions{
		Shards:        3,
		Platform:      distributed.PlatformConfig{Policy: distributed.PUU, Seed: 5},
		ShardObserver: s.ShardObserver(),
		OnTopology:    s.SetTopology,
		AgentSeedBase: 40,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Finish(stats.Choices)

	p := getShards(t, ts.URL)
	if p.Shards != 3 || len(p.Detail) != 3 {
		t.Fatalf("payload = %+v", p)
	}
	users, updates := 0, 0
	for _, sh := range p.Detail {
		users += sh.Users
		updates += sh.TotalUpdates
		for pr, lag := range sh.PeerLag {
			if lag != 0 {
				t.Errorf("shard %d: peer %d lag %d at quiescence", sh.Shard, pr, lag)
			}
		}
	}
	if users != in.NumUsers() {
		t.Errorf("shards serve %d users, instance has %d", users, in.NumUsers())
	}
	if updates != stats.TotalUpdates {
		t.Errorf("per-shard updates sum to %d, run reports %d", updates, stats.TotalUpdates)
	}
}

// TestShardsPeers feeds the peer observer by hand and checks the peers
// section of the payload: observed links only, keyed by shard, latest
// observation winning.
func TestShardsPeers(t *testing.T) {
	s, ts := testServer()
	defer ts.Close()

	po := s.PeerObserver()
	po(distributed.PeerStatus{Shard: 2, Addr: "127.0.0.1:9902", Connected: true, Epoch: 4, Lag: 0})
	po(distributed.PeerStatus{Shard: 0, Addr: "127.0.0.1:9900", Connected: false, Reconnects: 1, Epoch: 3, Lag: 1})
	po(distributed.PeerStatus{Shard: 2, Addr: "127.0.0.1:9902", Connected: true, Reconnects: 0, Epoch: 5, Lag: 0})
	po(distributed.PeerStatus{Shard: -1}) // invalid: ignored

	p := getShards(t, ts.URL)
	// Shard 1 (self) was never observed and must not appear.
	if len(p.Peers) != 2 {
		t.Fatalf("peers = %+v, want 2 entries", p.Peers)
	}
	p0, p2 := p.Peers[0], p.Peers[1]
	if p0.Shard != 0 || p0.Connected || p0.Reconnects != 1 || p0.Lag != 1 {
		t.Errorf("peer 0 = %+v", p0)
	}
	if p2.Shard != 2 || !p2.Connected || p2.Epoch != 5 || p2.Addr != "127.0.0.1:9902" {
		t.Errorf("peer 2 = %+v", p2)
	}
	if p0.UpdatedAt.IsZero() || p2.UpdatedAt.IsZero() {
		t.Error("peer observations missing UpdatedAt")
	}
}
