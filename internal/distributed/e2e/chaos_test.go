package e2e

import (
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
)

// TestCrashRecovery is the chaos soak: a 3-shard DET federation is
// started with stretched slots, one shard is crashed with SIGKILL
// mid-protocol, restarted with -resume, and its agent fleet relaunched
// through the still-running front door. The run must then finish as if
// nothing happened: every shard converges with exit 0, the replicated
// count stores agree exactly (no double-ingested epochs — a replayed or
// duplicated gossip batch would skew the counts of exactly the crashed
// shard's contribution), the aggregated routes form a Nash equilibrium,
// and the armed anomaly detectors stay quiet outside the fault window.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak skipped in -short (run via make chaos / make soak-multinode)")
	}
	in, instance := e2eInstance(t)
	const K = 3
	const slotDelay = 100 * time.Millisecond

	// Pin the runway: the kill lands a few rounds in, and the run must
	// still be going then. The in-process reference tells us how many
	// slots a clean run takes.
	ref, err := distributed.RunFederatedInProcess(in, distributed.FederatedOptions{
		Shards:   K,
		Platform: distributed.PlatformConfig{Policy: distributed.Deterministic, Seed: 1},
	}, distributed.InProcessOptions{AgentSeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Slots < 6 {
		t.Fatalf("scenario converges in %d slots — too short to crash mid-run, grow the instance", ref.Slots)
	}

	traceDirs := make([]string, K)
	for k := range traceDirs {
		traceDirs[k] = t.TempDir()
	}
	extra := func(k int) []string {
		return []string{
			"-slot-delay", slotDelay.String(),
			"-trace-dir", traceDirs[k],
		}
	}
	c := startCluster(t, in, instance, K, "DET", extra)
	c.startAgents(t, allUsers(in))

	// Let the federation make real progress, then crash shard 1 without
	// ceremony. SIGKILL means no farewell, no flush: its peers are left
	// parked mid-round and its agents' connections drop.
	time.Sleep(3 * slotDelay)
	victim := c.shards[1]
	if victim.exited() {
		t.Fatal("shard 1 exited before the crash could land")
	}
	victim.kill()

	// Restart the shard in recovery mode on the same addresses and
	// relaunch its agent fleet through the front door, which has kept
	// accepting all along and parks the dials until the listener is back.
	c.shards[1] = start(t, "shard1-resumed", platformdBin, c.shardArgs(1, "DET", append(extra(1), "-resume")...)...)
	c.startAgents(t, c.part.Owned[1])

	var counts []string
	for k, s := range c.shards {
		if code := s.waitExit(t, 120*time.Second); code != 0 {
			t.Fatalf("shard %d exited %d:\n%s", k, code, s.out.String())
		}
		if !strings.Contains(s.out.String(), "converged      true") {
			t.Fatalf("shard %d did not report convergence:\n%s", k, s.out.String())
		}
		counts = append(counts, countsLine(t, s))
	}
	if !strings.Contains(c.shards[1].out.String(), "resumed") {
		t.Errorf("restarted shard did not report a recovery rejoin:\n%s", c.shards[1].out.String())
	}
	// The survivors' links to shard 1 were re-established after the crash.
	for _, k := range []int{0, 2} {
		if n := peerReconnects(t, c.shards[k]); n == 0 {
			t.Errorf("shard %d reports 0 peer reconnects after its peer was restarted:\n%s", k, c.shards[k].out.String())
		}
	}

	// Exact count-store convergence across the fault: all three replicas
	// must print the identical final count vector.
	for k := 1; k < K; k++ {
		if counts[k] != counts[0] {
			t.Errorf("final counts diverge after recovery: shard 0 %s, shard %d %s", counts[0], k, counts[k])
		}
	}

	// The aggregated routes form a global Nash equilibrium.
	choices := make([]int, in.NumUsers())
	for u := range choices {
		choices[u] = -1
	}
	for _, s := range c.shards {
		userRoutes(t, s, choices)
	}
	for u, r := range choices {
		if r < 0 {
			t.Fatalf("no shard reported user %d's route", u)
		}
	}
	prof, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.IsNash() {
		t.Error("post-recovery aggregated routes are not a Nash equilibrium")
	}

	// The tracers were armed the whole time (stall and retry-storm
	// detectors at their defaults); the crash window must not have
	// tripped them on the surviving shards or the resumed incarnation.
	for k, dir := range traceDirs {
		if dumps, _ := filepath.Glob(filepath.Join(dir, "*anomaly*")); len(dumps) > 0 {
			t.Errorf("shard %d tripped anomaly detectors during the soak: %v", k, dumps)
		}
	}
}

// TestSIGTERMCleanShutdown asserts the decommission path: SIGTERM to
// every cluster member mid-protocol produces the shutdown message and
// exit code 0 on each — never a protocol error or a crash exit.
func TestSIGTERMCleanShutdown(t *testing.T) {
	in, instance := e2eInstance(t)
	const K = 2
	c := startCluster(t, in, instance, K, "DET", func(int) []string {
		return []string{"-slot-delay", "50ms"}
	})
	c.startAgents(t, allUsers(in))
	for _, s := range c.shards {
		s.waitOutput(t, "shard", 30*time.Second)
	}
	time.Sleep(100 * time.Millisecond)
	members := append(append([]*proc{}, c.shards...), c.frontdoor)
	for _, s := range members {
		// An already-finished process rejects the signal; that is fine —
		// it converged before the termination landed.
		s.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, s := range members {
		if code := s.waitExit(t, 30*time.Second); code != 0 {
			t.Errorf("%s exited %d after SIGTERM:\n%s", s.name, code, s.out.String())
		}
		if !strings.Contains(s.out.String(), "shutting down") && !strings.Contains(s.out.String(), "converged") {
			t.Errorf("%s: neither shutdown message nor convergence in output:\n%s", s.name, s.out.String())
		}
	}
}
