package distributed

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
)

// The front door is the thin agent-facing entry point of a multi-node
// federation: agents dial ONE address exactly as they would a standalone
// platform, and the front door routes each connection to the shard that
// owns the agent's user. Routing peeks at the agent's hello frame (raw
// bytes, via wire.ReadRawFrame), resolves the owning shard through the
// same spatial partition every node derives from the shared instance,
// replays the raw frame to the shard, and then splices bytes both ways —
// the protocol runs end to end between agent and shard, with the front
// door invisible to both. Only per-connection agents can be routed; a
// multiplexed fleet (useragent -user a,b,c) interleaves many users on one
// byte stream and is rejected at the first frame. Such a fleet dials its
// shard's agent address directly, which takes mux sessions and plain
// agents alike.

// FrontDoorOptions configures ServeFrontDoor.
type FrontDoorOptions struct {
	// ShardAddrs holds every shard's AGENT listen address, indexed by
	// shard; its length is the federation size K.
	ShardAddrs []string
	// Partition overrides user placement; the zero value partitions
	// spatially, matching ServeNode's default.
	Partition federation.Partition
	// DialRetry is the backoff while a shard's agent listener is not up
	// yet (default 100ms); DialTimeout bounds the whole attempt per
	// connection (default 2m) — generous, because a crashed shard's
	// reconnecting agents park here until the shard is restarted.
	DialRetry   time.Duration
	DialTimeout time.Duration
	// OnRoute, when non-nil, is invoked for every routed connection.
	OnRoute func(user, shard int)
	// Logf, when non-nil, receives per-connection routing failures (the
	// server keeps accepting; one bad client must not take it down).
	Logf func(format string, args ...any)
}

// ServeFrontDoor accepts agent connections on ln and proxies each to its
// owning shard until the listener is closed. It returns nil once the
// listener closes and all in-flight splices have drained.
func ServeFrontDoor(ln net.Listener, in *core.Instance, opts FrontDoorOptions) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("distributed: %w", err)
	}
	K := len(opts.ShardAddrs)
	if K < 1 {
		return fmt.Errorf("distributed: front door needs at least one shard address")
	}
	part := opts.Partition
	if part.Shards == 0 {
		var err error
		if part, err = federation.Spatial(in, K); err != nil {
			return err
		}
	} else if part.Shards != K {
		return fmt.Errorf("distributed: partition has %d shards, %d shard addresses", part.Shards, K)
	}
	if err := part.Validate(in); err != nil {
		return err
	}
	if opts.DialRetry <= 0 {
		opts.DialRetry = 100 * time.Millisecond
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Minute
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var inflight sync.WaitGroup
	for {
		nc, err := ln.Accept()
		if err != nil {
			inflight.Wait()
			return nil // listener closed: clean shutdown
		}
		inflight.Add(1)
		go func(nc net.Conn) {
			defer inflight.Done()
			if err := routeAgent(nc, in, part, opts); err != nil {
				logf("front door: %v", err)
			}
		}(nc)
	}
}

// routeAgent peeks one agent connection's hello, dials the owning shard,
// replays the hello, and splices the two connections until either side
// closes.
func routeAgent(agent net.Conn, in *core.Instance, part federation.Partition, opts FrontDoorOptions) error {
	defer agent.Close()
	u, raw, err := readHello(agent)
	if err != nil {
		return err
	}
	if u < 0 || u >= in.NumUsers() {
		return fmt.Errorf("hello from unknown user %d", u)
	}
	k := part.Assign[u]
	shard, err := dialShard(opts.ShardAddrs[k], opts.DialRetry, opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("user %d -> shard %d: %w", u, k, err)
	}
	defer shard.Close()
	if _, err := shard.Write(raw); err != nil {
		return fmt.Errorf("replaying hello to shard %d: %w", k, err)
	}
	if opts.OnRoute != nil {
		opts.OnRoute(u, k)
	}
	// Splice both directions; either side closing tears the pair down.
	errc := make(chan error, 2)
	go splice(shard, agent, errc)
	go splice(agent, shard, errc)
	<-errc
	return nil
}

// dialShard dials an agent listener, retrying while the shard is down.
func dialShard(addr string, retry, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		nc, err := net.DialTimeout("tcp", addr, retry)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		time.Sleep(retry)
	}
}

// splice copies one direction and half-closes the destination so the far
// side sees EOF promptly.
func splice(dst, src net.Conn, errc chan<- error) {
	_, err := io.Copy(dst, src)
	if cw, ok := dst.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	errc <- err
}
