package distributed

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// settings accumulates the functional options before New validates them.
type settings struct {
	cfg     PlatformConfig
	timeout time.Duration
	shard   int
	shards  int
	users   []int
	store   *federation.Store
	err     error
}

// Option configures a platform built by New.
type Option func(*settings)

func (s *settings) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("distributed: "+format, args...)
	}
}

// WithConfig adopts a whole PlatformConfig, including its zero-value
// defaults. Use it when a runner option struct already carries a config
// bag; later options override individual fields.
func WithConfig(cfg PlatformConfig) Option {
	return func(s *settings) { s.cfg = cfg }
}

// WithPolicy selects the winner-selection policy (default SUU).
func WithPolicy(p SelectionPolicy) Option {
	return func(s *settings) { s.cfg.Policy = p }
}

// WithMaxSlots bounds the run's decision slots (default
// engine.DefaultMaxSlots).
func WithMaxSlots(n int) Option {
	return func(s *settings) {
		if n <= 0 {
			s.fail("max slots %d, want >= 1", n)
			return
		}
		s.cfg.MaxSlots = n
	}
}

// WithSeed seeds the platform's selection randomness.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithTelemetry selects the metrics registry; nil restores the default
// (telemetry.Default()).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.cfg.Telemetry = reg }
}

// WithTracer records the run into the distributed flight recorder; nil
// disables tracing.
func WithTracer(tr *tracing.Tracer) Option {
	return func(s *settings) { s.cfg.Tracer = tr }
}

// WithObserver installs the per-slot observation hook.
func WithObserver(fn func(Observation)) Option {
	return func(s *settings) { s.cfg.Observer = fn }
}

// WithObservePotential computes the weighted potential Φ for every
// observation (one profile evaluation per slot).
func WithObservePotential() Option {
	return func(s *settings) { s.cfg.ObservePotential = true }
}

// WithSlotTimeout bounds every transport operation on the platform side:
// each conn is wrapped so a Send or Recv that blocks longer than d fails
// instead of hanging the slot loop on a dead agent.
func WithSlotTimeout(d time.Duration) Option {
	return func(s *settings) {
		if d <= 0 {
			s.fail("slot timeout %v, want > 0", d)
			return
		}
		s.timeout = d
	}
}

// WithShard builds the platform as shard k of a K-shard federation: it
// serves only the users named by WithUsers (which becomes mandatory), and
// reads the shared participation counts through the federation's
// replicated store.
func WithShard(k, total int) Option {
	return func(s *settings) {
		if total < 1 {
			s.fail("shard count %d, want >= 1", total)
			return
		}
		if k < 0 || k >= total {
			s.fail("shard index %d out of range [0,%d)", k, total)
			return
		}
		s.shard, s.shards = k, total
	}
}

// WithUsers names the global user IDs served by this platform, parallel
// to the conns slice. Defaults to 0..len(conns)-1; a sharded platform
// must set it explicitly to its owned subset.
func WithUsers(ids []int) Option {
	return func(s *settings) { s.users = ids }
}

// withStore injects a pre-built replicated store; a federation shard
// passes the store its peer mesh flushes and ingests.
func withStore(st *federation.Store) Option {
	return func(s *settings) { s.store = st }
}

// New builds a platform over the given agent connections. With no options
// it serves all in.NumUsers() users with SUU selection and default
// telemetry — the classic layout. Options shard the platform for
// federation or tune observation and transport behavior; option
// validation errors surface here rather than mid-run.
func New(in *core.Instance, conns []Conn, opts ...Option) (*Platform, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	s := settings{shard: -1}
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	users := s.users
	if users == nil {
		if s.shards > 1 {
			return nil, fmt.Errorf("distributed: sharded platform needs WithUsers (its owned subset)")
		}
		users = make([]int, in.NumUsers())
		for i := range users {
			users[i] = i
		}
	}
	if len(conns) != len(users) {
		return nil, fmt.Errorf("distributed: %d connections for %d users", len(conns), len(users))
	}
	local := make([]int, in.NumUsers())
	for u := range local {
		local[u] = -1
	}
	for li, u := range users {
		if u < 0 || u >= in.NumUsers() {
			return nil, fmt.Errorf("distributed: served user %d out of range [0,%d)", u, in.NumUsers())
		}
		if local[u] != -1 {
			return nil, fmt.Errorf("distributed: user %d served twice", u)
		}
		local[u] = li
	}
	cfg := s.cfg
	switch cfg.Policy {
	case SUU, PUU, Deterministic:
	case "":
		cfg.Policy = SUU
	default:
		return nil, fmt.Errorf("distributed: unknown policy %q", cfg.Policy)
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = engine.DefaultMaxSlots
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}

	tel := newPlatformTelemetry(reg, users, s.shard)
	ctr := &Counter{}
	wrapped := make([]Conn, len(conns))
	for li, c := range conns {
		if s.timeout > 0 {
			c = WithTimeout(c, s.timeout)
		}
		// Trace inside the sequence stamper so transport spans carry the
		// final Seq, outside the counters so they time the real operation.
		wrapped[li] = WithSeq(WithTrace(WithCounter(tel.wrap(c, li), ctr), cfg.Tracer, users[li]), -1)
	}
	p := &Platform{
		in:      in,
		conns:   wrapped,
		cfg:     cfg,
		rnd:     rng.New(cfg.Seed),
		users:   users,
		local:   local,
		unions:  taskUnions(in, users),
		shard:   s.shard,
		shards:  s.shards,
		choices: make([]int, in.NumUsers()),
		inited:  make([]bool, in.NumUsers()),
		ctr:     ctr,
		tel:     tel,
		tr:      cfg.Tracer,
	}
	// A standalone platform counts through a one-shard store with no peers.
	k, K := s.shard, s.shards
	if K == 0 {
		k, K = 0, 1
	}
	st := s.store
	if st == nil {
		var err error
		if st, err = federation.NewStore(in.NumTasks(), k, K); err != nil {
			return nil, err
		}
	} else if st.Shard() != k || st.Shards() != K {
		return nil, fmt.Errorf("distributed: store is shard %d/%d, platform is %d/%d", st.Shard(), st.Shards(), k, K)
	}
	p.store = st
	return p, nil
}
