package distributed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// ServeTCP runs the platform over TCP as a one-shard node: it accepts the
// links of all in.NumUsers() agents on the listener (see acceptLinks),
// closes the listener, and then runs Algorithm 2 to completion.
func ServeTCP(ln net.Listener, in *core.Instance, cfg PlatformConfig) (RunStats, error) {
	stats, err := ServeNode(ln, nil, in, NodeOptions{Shards: 1, Platform: cfg})
	return stats.RunStats, err
}

// agentLinks is what an accept phase collected: one link per served user,
// and the mux sessions some of the links ride on.
type agentLinks struct {
	conns    []Conn
	sessions []*MuxTransport
}

// close closes every link. A mux session first flushes its queued frames,
// such as the Terminates that end a run.
func (l *agentLinks) close() {
	for _, c := range l.conns {
		if c != nil {
			c.Close()
		}
	}
	for _, t := range l.sessions {
		t.Drain()
		t.Close()
	}
}

// linkEvent reports one identified agent link to the accept phase, or the
// error that fails it. stop detaches the link's connection from the
// phase's end; session is set on links that ride a mux session.
type linkEvent struct {
	conn    Conn
	user    int
	stop    func() bool
	session *MuxTransport
	err     error
}

// acceptLinks accepts agent connections on ln until every listed user has
// a link, and returns the links in the order of users. A connection
// carries either one agent, whose first frame is its Hello, or a mux
// session with one channel per user (channel ID = user ID); its first bytes
// tell the two apart (wire.IsFrameHead). Each connection is identified in
// its own goroutine, so one that never sends stalls only itself. When the
// phase ends, ln and every connection no link was taken from are closed.
// An error — a bad first frame, an unknown or duplicate user, a mux
// session ending before every user is linked — fails the phase and closes
// every link and session.
func acceptLinks(ln net.Listener, users []int) (agentLinks, error) {
	index := make(map[int]int, len(users)) // user -> position in users
	for i, u := range users {
		index[u] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer ln.Close()
	events := make(chan linkEvent, len(users))
	report := func(ev linkEvent) {
		select {
		case events <- ev:
		case <-ctx.Done():
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				report(linkEvent{err: fmt.Errorf("distributed: accept: %w", err)})
				return
			}
			go identifyLinks(ctx, nc, report)
		}
	}()
	links := agentLinks{conns: make([]Conn, len(users))}
	for got := 0; got < len(users); {
		ev := <-events
		err := ev.err
		if err == nil {
			i, ok := index[ev.user]
			switch {
			case !ok:
				err = fmt.Errorf("distributed: link from user %d, who is not served here", ev.user)
			case links.conns[i] != nil:
				err = fmt.Errorf("distributed: duplicate link for user %d", ev.user)
			default:
				if ev.stop() && ev.session != nil {
					links.sessions = append(links.sessions, ev.session)
				}
				links.conns[i] = ev.conn
				got++
				continue
			}
		}
		links.close()
		return agentLinks{}, err
	}
	return links, nil
}

// identifyLinks reports the agent links on one accepted connection: the
// agent named by its Hello, or every channel its mux session opens. The
// connection is closed when the accept phase ends, unless the phase took a
// link from it first.
func identifyLinks(ctx context.Context, nc net.Conn, report func(linkEvent)) {
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	rc := &replayConn{Conn: nc, head: make([]byte, wire.FrameHeadLen)}
	if _, err := io.ReadFull(nc, rc.head); err != nil {
		report(linkEvent{err: fmt.Errorf("distributed: reading first frame: %w", err)})
		return
	}
	if wire.IsFrameHead(rc.head) {
		u, raw, err := readHello(rc)
		if err != nil {
			report(linkEvent{err: fmt.Errorf("distributed: %w", err)})
			return
		}
		rc.head = raw // the platform reads and checks the Hello itself
		report(linkEvent{conn: NewNetConn(rc), user: u, stop: stop})
		return
	}
	t := NewMuxTransport(rc, wire.MuxOptions{})
	for {
		c, u, err := t.Accept()
		if err != nil {
			report(linkEvent{err: fmt.Errorf("distributed: mux session ended before every user was linked: %w", err)})
			return
		}
		report(linkEvent{conn: c, user: u, stop: stop, session: t})
	}
}

// readHello reads an agent's first frame, which must be its Hello, and
// returns the user it names and the frame's raw bytes for replay.
func readHello(r io.Reader) (user int, raw []byte, err error) {
	if raw, err = wire.ReadRawFrame(r); err != nil {
		return 0, nil, fmt.Errorf("reading hello frame: %w", err)
	}
	m, err := wire.DecodeRawFrame(raw)
	if err != nil {
		return 0, nil, fmt.Errorf("decoding hello frame: %w", err)
	}
	if m.Kind != wire.KindHello {
		return 0, nil, fmt.Errorf("first frame was %v, want hello", m.Kind)
	}
	return m.Hello.User, raw, nil
}

// replayConn is a net.Conn whose Read returns head before reading on.
type replayConn struct {
	net.Conn
	head []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.head) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.head)
	c.head = c.head[n:]
	return n, nil
}

// DialTCP connects user agents to a platform at addr and runs Algorithm 1
// for each to completion, joining their errors. One agent gets a
// connection of its own, which a front door can route; several share one
// mux session, one channel per user.
func DialTCP(addr string, cfgs ...AgentConfig) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("distributed: dial %s: no agents", addr)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("distributed: dial %s: %w", addr, err)
	}
	if len(cfgs) == 1 {
		defer nc.Close()
		return NewAgent(NewNetConn(nc), cfgs[0]).Run()
	}
	t := NewMuxTransport(nc, wire.MuxOptions{})
	defer t.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := t.Agent(cfg.User)
			if err == nil {
				err = NewAgent(conn, cfg).Run()
			}
			if err != nil {
				errs[i] = fmt.Errorf("distributed: agent %d: %w", cfg.User, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
