package distributed

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// StandardFaultProfile is the reference chaos profile used by the soak
// target and the convergence-overhead benchmark: every link sees >= 1%
// transient Send and Recv failures plus a healthy duplicate rate. It is
// deliberately latency-free so soak runs stay fast; add DelayProb locally
// when exercising timing.
var StandardFaultProfile = FaultProfile{
	SendErrProb: 0.02,
	RecvErrProb: 0.02,
	DupProb:     0.05,
}

// ChaosOptions configures RunChaos, the fault-injected in-process runner
// for the slot-synchronous protocol.
type ChaosOptions struct {
	Platform PlatformConfig
	// AgentSeedBase seeds agent i with AgentSeedBase + i.
	AgentSeedBase uint64
	// Deterministic propagates to every agent (see AgentConfig).
	Deterministic bool
	// Seed drives every fault schedule in the run; two runs with identical
	// options (including Seed) produce identical fault schedules, slot
	// counts, and outcomes.
	Seed uint64
	// AgentProfile decorates each agent-side link end; PlatformProfile each
	// platform-side end. DisconnectAfterOps inside these profiles is
	// ignored — crashes are scheduled per-agent via CrashAgents.
	AgentProfile, PlatformProfile FaultProfile
	// CrashAgents maps user ID -> operation count after which that agent's
	// link hard-crashes (once). The harness restarts the agent as a fresh
	// incarnation (epoch+1) which rejoins via Hello{Resume}.
	CrashAgents map[int]int
	// MaxRestarts bounds restarts per agent; 0 means DefaultMaxRestarts.
	MaxRestarts int
	// Retry is applied to both sides of every link; the zero value means
	// DefaultRetry whenever any fault profile is active.
	Retry RetryPolicy
	// Links supplies the raw transport pair for user i (platform end, agent
	// end). Nil means in-process channel pairs; the mux chaos tests supply
	// channels multiplexed over one shared stream here. The fault, retry,
	// dedup, and tracing decorators stack on top of whatever Links returns.
	Links func(user int) (platform, agent Conn, err error)
	// Shards is the number of ServeNode shards the platform side runs as,
	// meshed over loopback TCP (see RunInProcess); 0 or 1 runs one node,
	// which behaves like a standalone platform. Every shard rides out its
	// own users' faults locally. With more than one shard,
	// Platform.Observer must be unset.
	Shards int
}

// DefaultMaxRestarts bounds per-agent restarts in RunChaos.
const DefaultMaxRestarts = 3

// ChaosStats reports a chaos run: the platform statistics plus the fault
// and recovery record and the potential trace the invariant checks feed on.
type ChaosStats struct {
	RunStats
	// Potentials holds the weighted potential Φ after initialization and
	// after every decision slot that applied updates, replayed from the
	// run's selection transcript. Theorem 2 promises it is monotone
	// non-decreasing.
	Potentials []float64
	// Restarts counts agent incarnations beyond the first, summed over all
	// agents.
	Restarts int
	// Faults tallies every injected fault across all links.
	Faults map[FaultKind]int
	// Nodes holds each shard's own view of the run.
	Nodes []NodeStats
	// Transcript is the run's global selection transcript (see
	// FederatedStats.Transcript).
	Transcript string
}

// RunChaos runs the full distributed protocol in-process under seeded fault
// injection: transient send/recv failures, duplicate deliveries, latency,
// and hard agent crashes with automatic restart-and-resume. It blocks until
// the protocol terminates and returns the chaos statistics. Any error
// includes the seed so the failing schedule can be replayed exactly.
func RunChaos(in *core.Instance, opts ChaosOptions) (ChaosStats, error) {
	stats, err := runChaos(in, opts)
	if err != nil {
		err = fmt.Errorf("chaos run (seed %d): %w", opts.Seed, err)
	}
	return stats, err
}

func runChaos(in *core.Instance, opts ChaosOptions) (ChaosStats, error) {
	n := in.NumUsers()
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = DefaultMaxRestarts
	}
	if opts.Retry == (RetryPolicy{}) {
		opts.Retry = DefaultRetry
	}
	opts.AgentProfile.DisconnectAfterOps = 0
	opts.PlatformProfile.DisconnectAfterOps = 0

	links := opts.Links
	if links == nil {
		links = func(int) (Conn, Conn, error) {
			pc, ac := ChanPair(64)
			return pc, ac, nil
		}
	}

	log := &FaultLog{}
	tr := opts.Platform.Tracer
	raw := make([]Conn, n)       // underlying transport ends, platform side
	platConns := make([]Conn, n) // decorated platform side
	agentFault := make([]*FaultConn, n)
	for i := 0; i < n; i++ {
		pc, ac, err := links(i)
		if err != nil {
			return ChaosStats{}, fmt.Errorf("building link %d: %w", i, err)
		}
		raw[i] = pc
		fc := NewFaultConn(pc, opts.PlatformProfile, faultSeed(opts.Seed, i, 0), log).WithTracer(tr, i)
		platConns[i] = WithRetryTraced(fc, opts.Retry, tr, i)
		prof := opts.AgentProfile
		prof.DisconnectAfterOps = opts.CrashAgents[i]
		agentFault[i] = NewFaultConn(ac, prof, faultSeed(opts.Seed, i, 1), log).WithTracer(tr, i)
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		restarts  int
		agentErrs = make([]error, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := in.Users[i]
			for epoch := uint32(0); ; epoch++ {
				a := NewAgent(WithRetryTraced(agentFault[i], opts.Retry, tr, i), AgentConfig{
					User:          i,
					Alpha:         u.Alpha,
					Beta:          u.Beta,
					Gamma:         u.Gamma,
					Seed:          opts.AgentSeedBase + uint64(i),
					Deterministic: opts.Deterministic,
					Epoch:         epoch,
					Tracer:        tr,
				})
				var err error
				if epoch == 0 {
					err = a.Run()
				} else {
					err = a.RunResume()
				}
				if err == nil {
					return // normal termination
				}
				if !errors.Is(err, ErrDisconnected) || int(epoch) >= opts.MaxRestarts {
					agentErrs[i] = err
					// Tear down the link so the platform does not block
					// forever waiting on a dead agent.
					raw[i].Close()
					return
				}
				mu.Lock()
				restarts++
				mu.Unlock()
				// Revive the link for the next incarnation; no further
				// crash is scheduled for it.
				agentFault[i].Reset(0)
			}
		}(i)
	}

	// The platform side is a federation of max(Shards, 1) nodes; the
	// potential trace is replayed from its global transcript.
	var stats ChaosStats
	fs, perr := runNodes(in, InProcessOptions{Shards: opts.Shards, Platform: opts.Platform}, platConns)
	if perr == nil {
		var final []int
		final, stats.Potentials, perr = ReplayTranscript(in, fs.Transcript)
		if perr == nil && !slices.Equal(final, fs.Choices) {
			perr = errors.New("distributed: replayed transcript disagrees with the shards' final routes")
		}
	}
	if perr != nil {
		// Unblock any agents still parked in Recv.
		for i := 0; i < n; i++ {
			raw[i].Close()
		}
	}
	wg.Wait()
	stats.RunStats, stats.Nodes, stats.Transcript = fs.RunStats, fs.Nodes, fs.Transcript
	mu.Lock()
	stats.Restarts = restarts
	mu.Unlock()
	stats.Faults = log.Counts()
	for i, e := range agentErrs {
		switch {
		case e == nil:
		case perr == nil:
			perr = fmt.Errorf("agent %d: %w", i, e)
		default:
			// A dead agent closes its link, so the platform usually fails
			// with a derivative "closed connection" error; keep the agent's
			// root cause visible alongside it.
			perr = fmt.Errorf("%w; agent %d: %v", perr, i, e)
		}
	}
	return stats, perr
}

// faultSeed derives a per-link, per-side fault schedule seed.
func faultSeed(base uint64, user, side int) uint64 {
	return base*2654435761 + uint64(user)*97 + uint64(side)
}
