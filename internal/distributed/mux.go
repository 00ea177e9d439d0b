package distributed

// Connection multiplexing: many agent links over one TCP connection. The
// frame-level machinery lives in wire (wire.Mux); this file adapts it to the
// Conn contract and to the platform/agent runners, so a platform can hold
// thousands of agents on a handful of sockets instead of a socket and
// accept-goroutine each. Channel ID = user ID, which also removes the
// Hello-peek dance ServeTCP needs to identify per-socket agents.

import (
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// MuxTransport is a Conn factory over one multiplexed byte stream. Both
// ends of a connection build one; Agent(i) on both sides yields the two
// ends of user i's logical link. The retry, dedup, epoch, fault-injection,
// and tracing decorators compose over the returned Conns unchanged.
type MuxTransport struct {
	mux *wire.Mux
}

// NewMuxTransport starts a mux session over rw (typically a net.Conn).
func NewMuxTransport(rw io.ReadWriteCloser, opts wire.MuxOptions) *MuxTransport {
	return &MuxTransport{mux: wire.NewMux(rw, opts)}
}

// Agent returns the Conn for the given user's logical link.
func (t *MuxTransport) Agent(user int) (Conn, error) {
	if user < 0 {
		return nil, fmt.Errorf("distributed: mux channel for negative user %d", user)
	}
	return t.mux.Channel(uint32(user))
}

// Accept blocks until the peer opens a link this side has not claimed yet
// and returns it together with the user ID it is addressed by.
func (t *MuxTransport) Accept() (Conn, int, error) {
	c, err := t.mux.Accept()
	if err != nil {
		return nil, 0, err
	}
	return c, int(c.ID()), nil
}

// Err surfaces the session's terminal error, nil while healthy.
func (t *MuxTransport) Err() error { return t.mux.Err() }

// Drain blocks until all queued outgoing frames have reached the stream.
func (t *MuxTransport) Drain() error { return t.mux.Drain() }

// Close tears down the session and every link on it. Call Drain first when
// in-flight messages (a final Terminate) must still reach the peer.
func (t *MuxTransport) Close() error { return t.mux.Close() }

// ServeTCPMux runs the platform over multiplexed TCP: it accepts `sessions`
// TCP connections on the listener (each typically carrying many agents) and
// collects exactly in.NumUsers() logical links across them, identified by
// channel ID — no Hello peeking needed. It then runs Algorithm 2 to
// completion. It fails once every session has closed before all users'
// links are open.
func ServeTCPMux(ln net.Listener, in *core.Instance, cfg PlatformConfig, sessions int) (RunStats, error) {
	n := in.NumUsers()
	if sessions < 1 {
		sessions = 1
	}
	transports := make([]*MuxTransport, 0, sessions)
	type accepted struct {
		conn Conn
		user int
	}
	links := make(chan accepted)
	// gone carries each session acceptor's exit cause; once every acceptor
	// has exited, no further link can arrive. One slot per acceptor, so an
	// acceptor exiting after the run never blocks.
	gone := make(chan error, sessions)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		// Flush queued frames (the Terminates ending the run) before tearing
		// the sessions down.
		for _, t := range transports {
			t.Drain()
			t.Close()
		}
		close(done)
		wg.Wait()
	}()
	for s := 0; s < sessions; s++ {
		nc, err := ln.Accept()
		if err != nil {
			return RunStats{}, fmt.Errorf("distributed: accept: %w", err)
		}
		t := NewMuxTransport(nc, wire.MuxOptions{})
		transports = append(transports, t)
		wg.Add(1)
		go func(t *MuxTransport) {
			defer wg.Done()
			for {
				c, user, err := t.Accept()
				if err != nil {
					gone <- err // session torn down; later errors surface via conns
					return
				}
				select {
				case links <- accepted{conn: c, user: user}:
				case <-done:
					return
				}
			}
		}(t)
	}
	conns := make([]Conn, n)
	for got, live := 0, sessions; got < n; {
		select {
		case err := <-gone:
			if live--; live == 0 {
				return RunStats{}, fmt.Errorf("distributed: every mux session closed with %d of %d users linked: %w", got, n, err)
			}
		case l := <-links:
			if l.user < 0 || l.user >= n {
				return RunStats{}, fmt.Errorf("distributed: link from unknown user %d", l.user)
			}
			if conns[l.user] != nil {
				return RunStats{}, fmt.Errorf("distributed: duplicate link for user %d", l.user)
			}
			conns[l.user] = l.conn
			got++
		}
	}
	plat, err := New(in, conns, WithConfig(cfg))
	if err != nil {
		return RunStats{}, err
	}
	return plat.Run()
}

// DialTCPMux connects a fleet of user agents to a platform at addr over one
// shared TCP connection and runs each to completion, joining their errors.
func DialTCPMux(addr string, cfgs []AgentConfig) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("distributed: dial %s: %w", addr, err)
	}
	t := NewMuxTransport(nc, wire.MuxOptions{})
	defer t.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		conn, err := t.Agent(cfg.User)
		if err != nil {
			return fmt.Errorf("distributed: opening link for user %d: %w", cfg.User, err)
		}
		wg.Add(1)
		go func(i int, conn Conn, cfg AgentConfig) {
			defer wg.Done()
			errs[i] = NewAgent(conn, cfg).Run()
		}(i, conn, cfg)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("distributed: agent %d: %w", cfgs[i].User, e)
		}
	}
	return nil
}
