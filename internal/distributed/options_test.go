package distributed

import (
	"net"
	"strings"
	"testing"

	"repro/internal/distributed/federation"
	"repro/internal/telemetry"
)

// TestNewOptionValidation table-tests the construction-time validation of
// a platform's inputs: its configuration and connections (New), the users
// and store a shard serves (newPlatform), and the shard range (ServeNode).
func TestNewOptionValidation(t *testing.T) {
	in := randomInstance(41, 6, 4)
	conns := func(n int) []Conn {
		cs := make([]Conn, n)
		for i := range cs {
			cs[i], _ = ChanPair(1)
		}
		return cs
	}
	store := func(k, K int) *federation.Store {
		st, err := federation.NewStore(in.NumTasks(), k, K)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	shard := func(k, K int, users []int) func() error {
		return func() error {
			_, err := newPlatform(in, conns(len(users)), PlatformConfig{}, users, store(k, K))
			return err
		}
	}
	node := func(k, K int) func() error {
		return func() error {
			a, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			_, err = ServeNode(a, p, in, NodeOptions{Shard: k, Shards: K, PeerAddrs: make([]string, max(K, 1))})
			return err
		}
	}
	newWith := func(n int, opts ...Option) func() error {
		return func() error {
			p, err := New(in, conns(n), opts...)
			if err != nil && p != nil {
				t.Errorf("got platform alongside error %v", err)
			}
			return err
		}
	}
	cases := []struct {
		name    string
		build   func() error
		wantErr string
	}{
		{"defaults", newWith(6), ""},
		{"conn-user-mismatch", newWith(4), "4 connections for 6 users"},
		{"unknown-policy", newWith(6, WithConfig(PlatformConfig{Policy: "bogus"})), "unknown policy"},
		{"user-out-of-range", shard(0, 2, []int{0, 6}), "out of range"},
		{"user-duplicated", shard(0, 2, []int{1, 1}), "served twice"},
		{"sharded-ok", shard(0, 2, []int{0, 2, 4}), ""},
		{"shard-count-zero", node(0, 0), "Shards >= 1"},
		{"shard-index-negative", node(-1, 2), "shard index"},
		{"shard-index-too-big", node(2, 2), "shard index"},
	}
	for _, tc := range cases {
		err := tc.build()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestNewOptionDefaults checks the documented defaults land on the
// constructed platform.
func TestNewOptionDefaults(t *testing.T) {
	in := randomInstance(43, 4, 3)
	cs := make([]Conn, 4)
	for i := range cs {
		cs[i], _ = ChanPair(1)
	}
	reg := telemetry.NewRegistry()
	p, err := New(in, cs, WithConfig(PlatformConfig{Telemetry: reg}))
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Policy != SUU {
		t.Errorf("default policy %q, want SUU", p.cfg.Policy)
	}
	if p.cfg.MaxSlots <= 0 {
		t.Errorf("default MaxSlots %d, want > 0", p.cfg.MaxSlots)
	}
	if st := p.store; st.Shard() != 0 || st.Shards() != 1 {
		t.Errorf("standalone platform counts through store %d/%d, want 0/1", st.Shard(), st.Shards())
	}
	snap := reg.Snapshot()
	if _, ok := snap.Counters["distributed_slots_total"]; !ok {
		t.Errorf("standalone platform registered no unlabelled slot counter: %v", snap.Counters)
	}
	for name := range snap.Counters {
		if strings.Contains(name, "shard=") {
			t.Errorf("standalone platform metric %s carries a shard label", name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, "shard=") {
			t.Errorf("standalone platform metric %s carries a shard label", name)
		}
	}
	if got := p.users; len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("default users %v, want [0 1 2 3]", got)
	}

	st, err := federation.NewStore(in.NumTasks(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardReg := telemetry.NewRegistry()
	sharded, err := newPlatform(in, cs[:2], PlatformConfig{Telemetry: shardReg}, []int{1, 3}, st)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.store != st {
		t.Error("sharded platform does not count through the store it was handed")
	}
	if _, ok := shardReg.Snapshot().Counters[`distributed_slots_total{shard="1"}`]; !ok {
		t.Errorf("shard 1 of 2 registered no labelled slot counter: %v", shardReg.Snapshot().Counters)
	}
}

// TestNewRunsWithOptions drives a full run through New with an explicit
// registry, policy, seed and observer, to check the configuration lands
// end to end.
func TestNewRunsWithOptions(t *testing.T) {
	in := randomInstance(47, 8, 5)
	reg := telemetry.NewRegistry()
	var observed int
	stats := runStandalone(t, in, PlatformConfig{
		Policy:    PUU,
		Seed:      9,
		Telemetry: reg,
		Observer:  func(Observation) { observed++ },
	}, 100, true)
	if !stats.Converged {
		t.Fatal("run did not converge")
	}
	if observed != stats.Slots+1 {
		t.Errorf("observer invoked %d times for %d slots plus init", observed, stats.Slots)
	}
	if got := reg.Snapshot().Counters["distributed_slots_total"]; got != uint64(stats.Slots) {
		t.Errorf("registry counted %d slots, run took %d", got, stats.Slots)
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("run not Nash")
	}
}
