package distributed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Option configures a platform built by New by editing its PlatformConfig.
type Option func(*PlatformConfig)

// WithConfig adopts a whole PlatformConfig, including its zero-value
// defaults.
func WithConfig(cfg PlatformConfig) Option {
	return func(c *PlatformConfig) { *c = cfg }
}

// New builds a standalone platform over the given agent connections: it
// serves all in.NumUsers() users, conns[u] being user u's link, with the
// configuration the options leave (SUU selection and default telemetry
// when unset). Validation errors surface here rather than mid-run.
func New(in *core.Instance, conns []Conn, opts ...Option) (*Platform, error) {
	var cfg PlatformConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return newPlatform(in, conns, cfg, nil, nil)
}

// newPlatform builds a platform that serves users over conns (parallel
// slices) and counts through st. nil users means every user of in; nil st
// means a one-shard store with no peers. A federation shard passes its
// owned users and the store its peer mesh flushes and ingests; only a
// shard of a K > 1 federation labels its metrics.
func newPlatform(in *core.Instance, conns []Conn, cfg PlatformConfig, users []int, st *federation.Store) (*Platform, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	if users == nil {
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
	if st == nil {
		var err error
		if st, err = federation.NewStore(in.NumTasks(), 0, 1); err != nil {
			return nil, err
		}
	}

	label := -1
	if st.Shards() > 1 {
		label = st.Shard()
	}
	tel := newPlatformTelemetry(reg, users, label)
	drift := core.NewDriftTracker(len(users), 1)
	drift.Index(in, users)
	for li := range drift.Drift {
		drift.Drift[li] = core.DriftInf // every user is asked in the first slot
	}
	wrapped := make([]Conn, len(conns))
	for li, c := range conns {
		// Trace inside the sequence stamper so transport spans carry the
		// final Seq, outside the counters so they time the real operation.
		wrapped[li] = WithSeq(WithTrace(tel.wrap(c, li), cfg.Tracer, users[li]), -1)
	}
	return &Platform{
		in:      in,
		conns:   wrapped,
		cfg:     cfg,
		rnd:     rng.New(cfg.Seed),
		users:   users,
		local:   local,
		unions:  taskUnions(in, users),
		store:   st,
		choices: make([]int, in.NumUsers()),
		inited:  make([]bool, in.NumUsers()),
		tel:     tel,
		tr:      cfg.Tracer,
		drift:   drift,
	}, nil
}
