package distributed

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// InProcessOptions configures RunInProcess.
type InProcessOptions struct {
	Platform PlatformConfig
	// AgentSeedBase seeds agent i with AgentSeedBase + i.
	AgentSeedBase uint64
	// Deterministic propagates to every agent (see AgentConfig).
	Deterministic bool
	// DupProb injects duplicate deliveries on every agent link with the
	// given probability (0 = reliable links).
	DupProb float64
}

// RunInProcess runs the full distributed protocol inside one process: one
// platform goroutine plus one agent goroutine per user, connected by
// channel transports. It blocks until the protocol terminates and returns
// the platform's statistics. Agent errors are joined into the returned
// error.
func RunInProcess(in *core.Instance, opts InProcessOptions) (RunStats, error) {
	conns, finish := startInProcessAgents(in, opts)
	plat, err := New(in, conns, WithConfig(opts.Platform))
	if err != nil {
		return RunStats{}, finish(err)
	}
	stats, err := plat.Run()
	return stats, finish(err)
}

// startInProcessAgents starts one agent goroutine per user on a channel
// transport and returns the platform ends, indexed by user. finish takes
// the platform side's error: on failure it closes the platform ends to
// unblock agents still waiting on them, then joins the agents and returns
// the platform error, else the first agent error.
func startInProcessAgents(in *core.Instance, opts InProcessOptions) (conns []Conn, finish func(error) error) {
	n := in.NumUsers()
	conns = make([]Conn, n)
	var wg sync.WaitGroup
	agentErrs := make([]error, n)
	for i, u := range in.Users {
		pc, ac := ChanPair(16)
		if opts.DupProb > 0 {
			// Fault injection uses a seeded child schedule per link for
			// determinism.
			pc = NewFaultConn(pc, FaultProfile{DupProb: opts.DupProb}, faultSeed(opts.AgentSeedBase, i, 0), nil)
			ac = NewFaultConn(ac, FaultProfile{DupProb: opts.DupProb}, faultSeed(opts.AgentSeedBase, i, 1), nil)
		}
		conns[i] = pc
		a := NewAgent(ac, AgentConfig{
			User:          i,
			Alpha:         u.Alpha,
			Beta:          u.Beta,
			Gamma:         u.Gamma,
			Seed:          opts.AgentSeedBase + uint64(i),
			Deterministic: opts.Deterministic,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agentErrs[i] = a.Run()
		}(i)
	}
	return conns, func(perr error) error {
		if perr != nil {
			for _, c := range conns {
				c.Close()
			}
		}
		wg.Wait()
		for i, e := range agentErrs {
			if e != nil && perr == nil {
				perr = fmt.Errorf("agent %d: %w", i, e)
			}
		}
		return perr
	}
}

// faultSeed derives a per-link, per-side fault schedule seed.
func faultSeed(base uint64, user, side int) uint64 {
	return base*2654435761 + uint64(user)*97 + uint64(side)
}

// ServeTCP runs the platform over TCP: it accepts in.NumUsers() agent
// connections on the listener, identifies each by its Hello, and then runs
// Algorithm 2 to completion.
func ServeTCP(ln net.Listener, in *core.Instance, cfg PlatformConfig) (RunStats, error) {
	users := make([]int, in.NumUsers())
	for u := range users {
		users[u] = u
	}
	conns, err := acceptAgents(ln, users)
	if err != nil {
		return RunStats{}, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	plat, err := New(in, conns, WithConfig(cfg))
	if err != nil {
		return RunStats{}, err
	}
	return plat.Run()
}

// acceptAgents accepts one connection per listed user on ln, identified
// by its Hello, and returns them in the order of users. The consumed
// Hello messages are replayed to the protocol via a pushback connection.
// On error every connection accepted so far is closed, the offending one
// included.
func acceptAgents(ln net.Listener, users []int) ([]Conn, error) {
	index := make(map[int]int, len(users)) // user -> position in users
	for i, u := range users {
		index[u] = i
	}
	conns := make([]Conn, len(users))
	fail := func(c Conn, err error) ([]Conn, error) {
		if c != nil {
			c.Close()
		}
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	for accepted := 0; accepted < len(users); accepted++ {
		nc, err := ln.Accept()
		if err != nil {
			return fail(nil, fmt.Errorf("distributed: accept: %w", err))
		}
		conn := NewNetConn(nc)
		m, err := conn.Recv()
		if err != nil {
			return fail(conn, fmt.Errorf("distributed: reading hello: %w", err))
		}
		if m.Kind != wire.KindHello {
			return fail(conn, fmt.Errorf("distributed: first message was %v, want hello", m.Kind))
		}
		u := m.Hello.User
		i, ok := index[u]
		if !ok {
			return fail(conn, fmt.Errorf("distributed: hello from user %d, who is not served here", u))
		}
		if conns[i] != nil {
			return fail(conn, fmt.Errorf("distributed: duplicate connection for user %d", u))
		}
		conns[i] = &pushbackConn{Conn: conn, pending: []*wire.Message{m}}
	}
	return conns, nil
}

// DialTCP connects a user agent to a platform at addr and runs Algorithm 1
// to completion.
func DialTCP(addr string, cfg AgentConfig) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("distributed: dial %s: %w", addr, err)
	}
	defer nc.Close()
	return NewAgent(NewNetConn(nc), cfg).Run()
}

// pushbackConn re-delivers stashed messages before reading from the inner
// connection.
type pushbackConn struct {
	Conn
	mu      sync.Mutex
	pending []*wire.Message
}

func (c *pushbackConn) Recv() (*wire.Message, error) {
	c.mu.Lock()
	if len(c.pending) > 0 {
		m := c.pending[0]
		c.pending = c.pending[1:]
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.Conn.Recv()
}
