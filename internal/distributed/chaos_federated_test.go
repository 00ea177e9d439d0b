package distributed

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/tracing"
)

// This file is the federated chaos suite: the fault-injection harness of
// chaos_test.go pointed at the sharded platform (K ServeNode shards).
// Every run must satisfy the same invariants as a standalone chaos run —
// potential ascent under bounded-staleness counts, zero Nash gap at
// quiescence, the Theorem-4 slot bound — plus the federation-specific ones
// (full gossip barriers, per-shard slot accounting, identical replicated
// counts), with the convergence anomaly detectors armed.

// newArmedTracer returns an enabled tracer with the anomaly detectors on;
// the returned check fails the test if any anomaly tripped. The potential
// drop detector runs at its default tolerance — that is the Theorem-2
// check. The stall and retry-storm thresholds are raised above what a
// legitimate fault-heavy chaos run generates (sharded commits report ΔΦ=0
// per slot, and injected faults produce real retries), so only genuine
// pathologies trip.
func newArmedTracer(t *testing.T, seed uint64, desc string) (*tracing.Tracer, func()) {
	t.Helper()
	tr := tracing.New(tracing.Config{
		Anomalies: tracing.AnomalyConfig{
			StallSlots:          4096,
			RetryStormThreshold: 4096,
			RetryStormWindow:    time.Second,
		},
	})
	return tr, func() {
		t.Helper()
		for _, d := range tr.Dumps() {
			t.Errorf("%s (seed %d): anomaly detector tripped: %v", desc, seed, d.Anomaly)
		}
		if n := len(tr.Stats().Anomalies); n > 0 {
			t.Errorf("%s (seed %d): %d anomalies recorded", desc, seed, n)
		}
	}
}

// assertFederatedChaosInvariants layers the federation checks on top of
// the standard chaos invariants (whose potential trace RunChaos replays
// from the global transcript).
func assertFederatedChaosInvariants(t *testing.T, stats ChaosStats, shards int, seed uint64, desc string) {
	t.Helper()
	if len(stats.Nodes) != shards {
		t.Fatalf("%s (seed %d): %d shard stats, want %d", desc, seed, len(stats.Nodes), shards)
	}
	perShardGrants := 0
	for k, ns := range stats.Nodes {
		if !ns.Converged {
			t.Errorf("%s (seed %d): shard %d did not converge", desc, seed, k)
		}
		// Every shard commits every global slot, and every barrier
		// takes one batch from each peer.
		if ns.Slots != stats.Slots {
			t.Errorf("%s (seed %d): shard %d reports %d slots, global run had %d", desc, seed, k, ns.Slots, stats.Slots)
		}
		if want := (stats.Slots + 1) * (shards - 1); ns.GossipBatches != want {
			t.Errorf("%s (seed %d): shard %d ingested %d gossip batches, want %d", desc, seed, k, ns.GossipBatches, want)
		}
		if !reflect.DeepEqual(ns.Counts, stats.Nodes[0].Counts) {
			t.Errorf("%s (seed %d): shard %d ended on different replicated counts", desc, seed, k)
		}
		perShardGrants += ns.TotalUpdates
	}
	if perShardGrants != stats.TotalUpdates {
		t.Errorf("%s (seed %d): per-shard updates sum to %d, global %d",
			desc, seed, perShardGrants, stats.TotalUpdates)
	}
}

// TestChaosFederatedTransientFaults drives K-sharded runs through the
// standard fault mixes on the agent links.
func TestChaosFederatedTransientFaults(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, cp := range chaosProfiles {
			for seed := uint64(1); seed <= 2; seed++ {
				in := randomInstance(700+seed, 12, 10)
				tr, checkAnomalies := newArmedTracer(t, seed, cp.name)
				stats, err := RunChaos(in, ChaosOptions{
					Platform:      PlatformConfig{Policy: PUU, Seed: seed, Tracer: tr},
					AgentSeedBase: 300 + seed,
					Seed:          seed,
					AgentProfile:  cp.prof,
					Shards:        shards,
				})
				desc := "federated/" + cp.name
				if err != nil {
					t.Fatalf("%s K=%d (seed %d): %v", desc, shards, seed, err)
				}
				assertChaosInvariants(t, in, stats, seed, desc)
				assertFederatedChaosInvariants(t, stats, shards, seed, desc)
				checkAnomalies()
				total := 0
				for _, c := range stats.Faults {
					total += c
				}
				if cp.fault && total == 0 {
					t.Errorf("%s K=%d (seed %d): no faults fired", desc, shards, seed)
				}
			}
		}
	}
}

// TestChaosFederatedCrashReconnect crashes agents owned by different
// shards mid-protocol; each shard must resync its own restarted agents
// and the federation must still land on a zero-gap equilibrium.
func TestChaosFederatedCrashReconnect(t *testing.T) {
	// Silent agents make few link operations, so users 0 and 9 crash
	// early enough to fire in every seed (9 right after its slot-1 answer).
	crash := map[int]int{0: 7, 5: 17, 9: 6}
	for seed := uint64(21); seed <= 23; seed++ {
		in := randomInstance(800+seed, 10, 12)
		tr, checkAnomalies := newArmedTracer(t, seed, "federated/crash")
		stats, err := RunChaos(in, ChaosOptions{
			Platform:      PlatformConfig{Policy: SUU, Seed: seed, Tracer: tr},
			AgentSeedBase: 400 + seed,
			Seed:          seed,
			AgentProfile:  FaultProfile{SendErrProb: 0.02, RecvErrProb: 0.02},
			CrashAgents:   crash,
			Shards:        3,
		})
		if err != nil {
			t.Fatalf("federated/crash (seed %d): %v", seed, err)
		}
		assertChaosInvariants(t, in, stats, seed, "federated/crash")
		assertFederatedChaosInvariants(t, stats, 3, seed, "federated/crash")
		checkAnomalies()
		if stats.Restarts == 0 {
			t.Errorf("federated/crash (seed %d): no agent restarted", seed)
		}
	}
}

// TestChaosFederatedDeterministicPerSeed replays a fully loaded federated
// chaos run (agent faults and crashes) twice and demands bit-identical
// outcomes.
func TestChaosFederatedDeterministicPerSeed(t *testing.T) {
	in := randomInstance(41, 12, 10)
	opts := ChaosOptions{
		Platform:      PlatformConfig{Policy: SUU, Seed: 6},
		AgentSeedBase: 88,
		Seed:          777,
		AgentProfile:  FaultProfile{SendErrProb: 0.03, RecvErrProb: 0.03, DupProb: 0.1},
		CrashAgents:   map[int]int{3: 13, 8: 9},
		Shards:        3,
	}
	run := func() ChaosStats {
		stats, err := RunChaos(in, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", opts.Seed, err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Choices, b.Choices) {
		t.Errorf("seed %d: choices differ across replays", opts.Seed)
	}
	if a.Slots != b.Slots || a.TotalUpdates != b.TotalUpdates {
		t.Errorf("seed %d: slot/update counts differ: %d/%d vs %d/%d",
			opts.Seed, a.Slots, a.TotalUpdates, b.Slots, b.TotalUpdates)
	}
	if a.Restarts != b.Restarts {
		t.Errorf("seed %d: restart counts differ: %d vs %d", opts.Seed, a.Restarts, b.Restarts)
	}
	if !reflect.DeepEqual(a.Potentials, b.Potentials) {
		t.Errorf("seed %d: potential traces differ", opts.Seed)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("seed %d: fault tallies differ: %v vs %v", opts.Seed, a.Faults, b.Faults)
	}
	assertChaosInvariants(t, in, a, opts.Seed, "federated/determinism")
	assertFederatedChaosInvariants(t, a, 3, opts.Seed, "federated/determinism")
}
