package distributed

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// assertChaosInvariants checks every load-bearing guarantee of the protocol
// on a completed chaos run. All failure messages carry the seed so the
// exact fault schedule can be replayed.
func assertChaosInvariants(t *testing.T, in *core.Instance, stats ChaosStats, seed uint64, desc string) {
	t.Helper()
	if !stats.Converged {
		t.Fatalf("%s (seed %d): run did not converge (%d slots)", desc, seed, stats.Slots)
	}
	// Zero Nash gap at the end: the final profile is an exact pure
	// equilibrium (Theorem 1 guarantees one exists; the protocol must land
	// on it, faults or not).
	prof := profileOf(t, in, stats.Choices)
	if !prof.IsNash() {
		t.Errorf("%s (seed %d): final profile is not a Nash equilibrium", desc, seed)
	}
	if gap := prof.NashGap(); gap > core.Eps {
		t.Errorf("%s (seed %d): final Nash gap %g > %g", desc, seed, gap, core.Eps)
	}
	// Theorem 2: the weighted potential never decreases across applied
	// updates — including no-op updates from crashed-and-restarted winners.
	const tol = 1e-9
	minStrict := math.Inf(1)
	strictIncreases := 0
	for i := 1; i < len(stats.Potentials); i++ {
		d := stats.Potentials[i] - stats.Potentials[i-1]
		if d < -tol {
			t.Fatalf("%s (seed %d): potential decreased at step %d: %g -> %g",
				desc, seed, i, stats.Potentials[i-1], stats.Potentials[i])
		}
		if d > tol {
			strictIncreases++
			if d < minStrict {
				minStrict = d
			}
		}
	}
	// Theorem 4: the number of improving slots is bounded by the analytic
	// convergence bound evaluated at the smallest observed improvement. The
	// bound is stated for per-user profit improvements; the observed
	// potential step overestimates none of them by more than e_max.
	if strictIncreases > 0 {
		_, eMax := in.WeightBounds()
		if eMax > 0 {
			bound := metrics.ConvergenceBound(in, minStrict/eMax)
			if float64(strictIncreases) > bound {
				t.Errorf("%s (seed %d): %d improving slots exceed the Theorem-4 bound %g",
					desc, seed, strictIncreases, bound)
			}
		}
	}
	// The potential trace covers init plus every improving slot.
	if len(stats.Potentials) == 0 {
		t.Fatalf("%s (seed %d): empty potential trace", desc, seed)
	}
}

// chaosProfiles are the standard fault mixes the sweep and soak tests
// rotate through.
var chaosProfiles = []struct {
	name  string
	prof  FaultProfile
	fault bool // whether any fault should fire on a typical run
}{
	{"clean", FaultProfile{}, false},
	{"dup-heavy", FaultProfile{DupProb: 0.3}, true},
	{"transient", FaultProfile{SendErrProb: 0.05, RecvErrProb: 0.05}, true},
	{"standard", StandardFaultProfile, true},
}

func TestChaosTransientFaultsConverge(t *testing.T) {
	for _, pol := range []SelectionPolicy{SUU, PUU} {
		for _, cp := range chaosProfiles {
			for seed := uint64(1); seed <= 3; seed++ {
				in := randomInstance(100+seed, 8, 12)
				stats, err := RunChaos(in, ChaosOptions{
					Platform:      PlatformConfig{Policy: pol, Seed: seed},
					AgentSeedBase: 500 + seed,
					Seed:          seed,
					AgentProfile:  cp.prof,
					PlatformProfile: FaultProfile{
						SendErrProb: cp.prof.SendErrProb / 2,
						RecvErrProb: cp.prof.RecvErrProb / 2,
						DupProb:     cp.prof.DupProb / 2,
					},
				})
				desc := string(pol) + "/" + cp.name
				if err != nil {
					t.Fatalf("%s (seed %d): %v", desc, seed, err)
				}
				assertChaosInvariants(t, in, stats, seed, desc)
				total := 0
				for _, c := range stats.Faults {
					total += c
				}
				if cp.fault && total == 0 {
					t.Errorf("%s (seed %d): no faults fired", desc, seed)
				}
				if !cp.fault && total != 0 {
					t.Errorf("%s (seed %d): clean profile injected %d faults", desc, seed, total)
				}
			}
		}
	}
}

// TestChaosCrashReconnectConverges is the acceptance scenario: agents
// hard-crash mid-protocol while every link sees >= 1% transient Send and
// Recv failures, and the run must still reach a zero-gap equilibrium with
// the potential ascending throughout.
func TestChaosCrashReconnectConverges(t *testing.T) {
	// Crash points count link operations. Silent agents make few, so the
	// points sit where each agent is still active in every seed: user 1
	// on its slot-1 Request, user 4 around its first grant, user 7 mid-run.
	crash := map[int]int{1: 5, 4: 9, 7: 14}
	for seed := uint64(11); seed <= 13; seed++ {
		in := randomInstance(7, 10, 14)
		stats, err := RunChaos(in, ChaosOptions{
			Platform:        PlatformConfig{Policy: SUU, Seed: seed},
			AgentSeedBase:   900 + seed,
			Seed:            seed,
			AgentProfile:    FaultProfile{SendErrProb: 0.02, RecvErrProb: 0.02},
			PlatformProfile: FaultProfile{SendErrProb: 0.01, RecvErrProb: 0.01},
			CrashAgents:     crash,
		})
		if err != nil {
			t.Fatalf("crash-reconnect (seed %d): %v", seed, err)
		}
		assertChaosInvariants(t, in, stats, seed, "crash-reconnect")
		if stats.Restarts == 0 {
			t.Fatalf("crash-reconnect (seed %d): no agent restarted; crashes did not fire", seed)
		}
		if got := stats.Faults[FaultDisconnect]; got != stats.Restarts {
			t.Errorf("crash-reconnect (seed %d): %d disconnect faults vs %d restarts",
				seed, got, stats.Restarts)
		}
		if stats.Restarts > len(crash) {
			t.Errorf("crash-reconnect (seed %d): %d restarts for %d scheduled crashes",
				seed, stats.Restarts, len(crash))
		}
	}
}

// agentOp is one message an agent sent or received, as logged by opLog.
type agentOp struct {
	sent     bool
	kind     wire.Kind
	slot     int
	tolerant bool // a Request with no move, carrying a tolerance
}

// opLog records, below the fault layer, every message on one agent's end
// of its link: in a run without transient faults or platform-side
// duplicates, entry j is the agent's link operation j+1, which is what
// ChaosOptions.CrashAgents counts.
type opLog struct {
	Conn
	mu  *sync.Mutex
	ops *[]agentOp
}

func (c *opLog) record(sent bool, m *wire.Message) {
	op := agentOp{sent: sent, kind: m.Kind}
	switch m.Kind {
	case wire.KindSlotInfo:
		op.slot = m.SlotInfo.Slot
	case wire.KindRequest:
		op.slot, op.tolerant = m.Request.Slot, !m.Request.HasUpdate
	}
	c.mu.Lock()
	*c.ops = append(*c.ops, op)
	c.mu.Unlock()
}

func (c *opLog) Send(m *wire.Message) error {
	c.record(true, m)
	return c.Conn.Send(m)
}

func (c *opLog) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.record(false, m)
	}
	return m, err
}

// TestChaosSilentAgentCrash crashes agents while they are silent: each
// answered "no move" with a tolerance, and its link fails on the very next
// receive, so it restarts at once and sends Hello{Resume} that the
// platform reads only when it next contacts the agent (one crash) or never,
// sending Terminate instead (the other). A clean DET run picks the crash
// points; the crashed runs, one also duplicating every second agent send
// (Requests with tolerances among them), must converge to Nash with the
// clean run's transcript.
func TestChaosSilentAgentCrash(t *testing.T) {
	in := randomInstance(7, 10, 14)
	opts := ChaosOptions{Platform: PlatformConfig{Policy: Deterministic, Seed: 1}, Deterministic: true, Seed: 5}
	logs := make([][]agentOp, in.NumUsers())
	var mu sync.Mutex
	logged := func(log [][]agentOp) func(int) (Conn, Conn, error) {
		return func(u int) (Conn, Conn, error) {
			pc, ac := ChanPair(64)
			return pc, &opLog{Conn: ac, mu: &mu, ops: &log[u]}, nil
		}
	}
	opts.Links = logged(logs)
	clean, err := RunChaos(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A silent crash point is the receive after a tolerant Request, when
	// the next message is a SlotInfo at least two slots on (the platform
	// contacts the agent again) or the Terminate after at least one
	// silent slot.
	crash := map[int]int{}
	var recontact, never bool
	for u, ops := range logs {
		for j := 0; j+1 < len(ops) && crash[u] == 0; j++ {
			req, next := ops[j], ops[j+1]
			if !req.sent || !req.tolerant {
				continue
			}
			switch {
			case !recontact && next.kind == wire.KindSlotInfo && next.slot >= req.slot+2:
				recontact, crash[u] = true, j+2
			case !never && next.kind == wire.KindTerminate && req.slot <= clean.Slots:
				never, crash[u] = true, j+2
			}
		}
	}
	if !recontact || !never {
		t.Fatalf("clean run offers no silent crash point (recontact %v, until terminate %v)", recontact, never)
	}
	for _, dup := range []float64{0, 0.5} {
		desc := fmt.Sprintf("silent crash, agent dup %g", dup)
		run := opts
		run.CrashAgents = crash
		run.AgentProfile = FaultProfile{DupProb: dup}
		dupLogs := make([][]agentOp, in.NumUsers())
		run.Links = logged(dupLogs)
		stats, err := RunChaos(in, run)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		assertChaosInvariants(t, in, stats, run.Seed, desc)
		if stats.Restarts != len(crash) || stats.Faults[FaultDisconnect] != len(crash) {
			t.Fatalf("%s: %d restarts, %d disconnects for %d scheduled crashes %v",
				desc, stats.Restarts, stats.Faults[FaultDisconnect], len(crash), crash)
		}
		if stats.Transcript != clean.Transcript {
			t.Fatalf("%s: transcript differs from the clean run's\n%s\nclean:\n%s", desc, stats.Transcript, clean.Transcript)
		}
		if dup > 0 {
			dups := 0
			for _, ops := range dupLogs {
				for j := 1; j < len(ops); j++ {
					if ops[j].sent && ops[j].tolerant && ops[j-1] == ops[j] {
						dups++
					}
				}
			}
			if dups == 0 {
				t.Fatalf("%s: no Request with a tolerance was duplicated", desc)
			}
		}
	}
}

// TestChaosDeterministicPerSeed replays the same fully-loaded chaos run
// twice and demands bit-identical outcomes: choices, slot count, restart
// count, fault tallies, and the whole potential trace.
func TestChaosDeterministicPerSeed(t *testing.T) {
	in := randomInstance(21, 9, 12)
	opts := ChaosOptions{
		Platform:        PlatformConfig{Policy: SUU, Seed: 8},
		AgentSeedBase:   77,
		Seed:            4242,
		AgentProfile:    FaultProfile{SendErrProb: 0.03, RecvErrProb: 0.03, DupProb: 0.1},
		PlatformProfile: FaultProfile{SendErrProb: 0.01, DupProb: 0.05},
		CrashAgents:     map[int]int{2: 5, 5: 19},
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
		t.Errorf("seed %d: choices differ across replays: %v vs %v", opts.Seed, a.Choices, b.Choices)
	}
	if a.Slots != b.Slots {
		t.Errorf("seed %d: slot counts differ: %d vs %d", opts.Seed, a.Slots, b.Slots)
	}
	if a.Restarts != b.Restarts {
		t.Errorf("seed %d: restart counts differ: %d vs %d", opts.Seed, a.Restarts, b.Restarts)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("seed %d: fault tallies differ: %v vs %v", opts.Seed, a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Potentials, b.Potentials) {
		t.Errorf("seed %d: potential traces differ", opts.Seed)
	}
	assertChaosInvariants(t, in, a, opts.Seed, "determinism")
}

// TestChaosPotentialAgreement runs the protocol under faults on instances
// whose pure equilibria all share one potential value, and demands it
// lands on that value exactly.
func TestChaosPotentialAgreement(t *testing.T) {
	const wantInstances = 3
	found := 0
	for seed := uint64(1); seed <= 60 && found < wantInstances; seed++ {
		in := randomInstance(300+seed, 5, 8)
		eqs, err := core.PureEquilibria(in, 200_000)
		if err != nil || len(eqs) == 0 {
			continue
		}
		eqPot := math.Inf(1)
		unique := true
		for _, eq := range eqs {
			p := profileOf(t, in, eq).Potential()
			if math.IsInf(eqPot, 1) {
				eqPot = p
			} else if math.Abs(p-eqPot) > 1e-6 {
				unique = false
				break
			}
		}
		if !unique {
			continue
		}
		found++
		// Run under the standard fault mix.
		stats, err := RunChaos(in, ChaosOptions{
			Platform:      PlatformConfig{Policy: SUU, Seed: seed},
			AgentSeedBase: seed,
			Seed:          seed,
			AgentProfile:  StandardFaultProfile,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertChaosInvariants(t, in, stats, seed, "agreement")
		if pot := profileOf(t, in, stats.Choices).Potential(); math.Abs(pot-eqPot) > 1e-6 {
			t.Errorf("seed %d: final potential %g != unique equilibrium potential %g", seed, pot, eqPot)
		}
	}
	if found == 0 {
		t.Skip("no unique-potential instance in the scanned seed range")
	}
}

// TestChaosSoak hammers the protocol with >= 100 seeded chaos runs across
// rotating instance sizes, policies, fault profiles, and crash schedules.
// Skipped under -short; `make chaos` runs it with the race detector.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const runs = 120
	for r := 0; r < runs; r++ {
		seed := uint64(r)
		users := 6 + r%4
		tasks := 9 + r%5
		in := randomInstance(1000+seed, users, tasks)
		cp := chaosProfiles[r%len(chaosProfiles)]
		opts := ChaosOptions{
			Platform:      PlatformConfig{Policy: SUU, Seed: seed},
			AgentSeedBase: 2000 + seed,
			Seed:          seed,
			AgentProfile:  cp.prof,
			PlatformProfile: FaultProfile{
				SendErrProb: cp.prof.SendErrProb / 2,
				RecvErrProb: cp.prof.RecvErrProb / 2,
			},
		}
		desc := "soak/" + cp.name
		switch {
		case r%3 == 0:
			// Crash one or two agents at staggered points.
			opts.CrashAgents = map[int]int{r % users: 5 + r%20}
			if r%6 == 0 {
				opts.CrashAgents[(r+3)%users] = 9 + r%15
			}
			desc += "+crash"
		case r%3 == 1:
			// PUU batches are only exercised crash-free: a restarted winner
			// may re-propose outside its granted batch, which is the
			// documented limit of the disjointness guarantee.
			opts.Platform.Policy = PUU
		}
		stats, err := RunChaos(in, opts)
		if err != nil {
			t.Fatalf("%s (seed %d): %v", desc, seed, err)
		}
		assertChaosInvariants(t, in, stats, seed, desc)
		if opts.CrashAgents != nil && stats.Restarts == 0 && stats.Slots > 8 {
			// Crashes at low op counts should have fired on any run long
			// enough to pass the scheduled operation.
			t.Logf("%s (seed %d): scheduled crash never fired (%d slots)", desc, seed, stats.Slots)
		}
	}
}

// TestChaosTelemetryCounters is the observability acceptance check: a
// fault-injected run must leave nonzero retry and fault counters in the
// default telemetry registry, and the platform's per-run registry must
// show slot histograms and per-link traffic.
func TestChaosTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := randomInstance(77, 6, 10)
	before := telemetry.Default().Snapshot()
	stats, err := RunChaos(in, ChaosOptions{
		Platform:      PlatformConfig{Policy: SUU, Seed: 7, Telemetry: reg},
		AgentSeedBase: 70,
		Seed:          7,
		AgentProfile:  StandardFaultProfile,
		PlatformProfile: FaultProfile{
			SendErrProb: StandardFaultProfile.SendErrProb / 2,
			RecvErrProb: StandardFaultProfile.RecvErrProb / 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("run did not converge")
	}
	after := telemetry.Default().Snapshot()
	// Retry layer absorbed the injected transient failures.
	if d := after.Counters["distributed_retry_attempts_total"] - before.Counters["distributed_retry_attempts_total"]; d == 0 {
		t.Error("no retry attempts recorded in the default registry")
	}
	// Fault injection mirrored into labeled fault counters.
	var faultDelta uint64
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "distributed_faults_total{") {
			faultDelta += v - before.Counters[name]
		}
	}
	if faultDelta == 0 {
		t.Error("no faults recorded in the default registry")
	}
	if logged := uint64(stats.Faults[FaultSendErr] + stats.Faults[FaultRecvErr] + stats.Faults[FaultDup]); faultDelta < logged {
		t.Errorf("registry fault delta %d < FaultLog count %d", faultDelta, logged)
	}
	// The platform's own registry carries the slot protocol metrics.
	snap := reg.Snapshot()
	if snap.Counters["distributed_slots_total"] == 0 {
		t.Errorf("slots counter empty: %v", snap.Counters)
	}
	if h := snap.Histograms["distributed_slot_roundtrip_seconds"]; h.Count == 0 {
		t.Error("roundtrip histogram empty")
	}
	if h := snap.Histograms["distributed_selection_seconds"]; h.Count == 0 {
		t.Error("selection histogram empty")
	}
	for u := 0; u < in.NumUsers(); u++ {
		if snap.Counters[fmt.Sprintf("distributed_link_sent_total{user=\"%d\"}", u)] == 0 {
			t.Errorf("per-link sent counter for user %d is zero", u)
		}
	}
}

// BenchmarkConvergence measures the slot and wall-clock overhead the
// standard fault profile adds to a full distributed run.
func BenchmarkConvergence(b *testing.B) {
	in := randomInstance(55, 10, 15)
	bench := func(b *testing.B, prof FaultProfile) {
		totalSlots := 0
		for i := 0; i < b.N; i++ {
			stats, err := RunChaos(in, ChaosOptions{
				Platform:      PlatformConfig{Policy: SUU, Seed: uint64(i)},
				AgentSeedBase: uint64(i),
				Seed:          uint64(i),
				AgentProfile:  prof,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !stats.Converged {
				b.Fatalf("run %d did not converge", i)
			}
			totalSlots += stats.Slots
		}
		b.ReportMetric(float64(totalSlots)/float64(b.N), "slots/run")
	}
	b.Run("clean", func(b *testing.B) { bench(b, FaultProfile{}) })
	b.Run("standard-faults", func(b *testing.B) { bench(b, StandardFaultProfile) })
}
