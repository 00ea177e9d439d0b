package distributed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributed/federation"
	"repro/internal/wire"
)

// This file is the transport layer of the multi-node federation
// (ServeNode): one supervised TCP link per peer shard, carrying the v3
// peer-to-peer vocabulary — ShardRequests broadcasts, round-stamped
// GossipDelta batches, and Snapshot transfers for crash recovery — over
// the binary wire codec.
//
// Topology and supervision follow one rule: the higher-index shard dials
// the lower-index one (retrying until the peer is up), the lower-index
// shard accepts. A broken link is re-established the same way, so a
// crashed-and-restarted peer reattaches without any coordination: the
// dialing side keeps redialing, the accepting side simply takes the next
// incoming connection for that shard index.
//
// Every link keeps small replay rings of the gossip batches and request
// broadcasts it sent most recently. On ANY (re-)establishment both sides
// replay their rings: the receiver's epoch dedup (federation.Store.Ingest)
// and slot tracking (the node's per-peer request cursor) make replays
// idempotent, and the rings are what close the message gap around a link
// drop — in particular they re-deliver the batches a restarting peer's
// previous incarnation received but whose effects died with it.

// peerRingSize bounds the per-link replay rings. Shards drift by at most
// one round (the gossip barrier), so a reconnecting peer can miss at most
// ~2 live batches per kind; recovery adds the catch-up deltas and the
// rebase flush. Eight covers all of it with margin.
const peerRingSize = 8

// PeerStatus is one peer link's liveness as seen from this node; it feeds
// NodeOptions.PeerObserver and the web layer's /api/v1/shards payload.
type PeerStatus struct {
	// Shard is the peer's shard index; Addr its peer-mesh address.
	Shard int
	Addr  string
	// Connected reports whether the link currently has a live TCP
	// connection; Reconnects counts re-establishments after the first.
	Connected  bool
	Reconnects int
	// LastContact is the time the last message arrived on the link.
	LastContact time.Time
	// Epoch is the highest gossip epoch ingested from this peer, and Lag
	// is how many epochs that trails our own flushes (see Store.PeerLag).
	Epoch int
	Lag   int
}

// peerMesh owns the K-1 supervised links of one multi-node shard.
type peerMesh struct {
	self    int
	addrs   []string // peer-mesh listen address per shard
	retry   time.Duration
	timeout time.Duration
	store   *federation.Store
	observe func(PeerStatus)
	// abort, when closed, fails every pending wait on a peer (nil: never).
	abort <-chan struct{}

	// resume is true while this node is recovering: its hellos ask peers
	// for a state snapshot. Cleared once the node has rejoined.
	resume atomic.Bool
	// round is the decision round the node is currently executing; it is
	// stamped into snapshots served to recovering peers.
	round atomic.Int64

	links  map[int]*peerLink
	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup
}

// newPeerMesh builds the mesh and starts its accept loop and dialers.
// Links to lower-index peers are dialed, higher-index peers are accepted;
// establishment happens in the background — use awaitConnected before the
// first exchange. A one-shard node's mesh may have a nil ln, and then
// starts no accept loop.
func newPeerMesh(ln net.Listener, self int, addrs []string, retry, timeout time.Duration, st *federation.Store, resume bool, observe func(PeerStatus), abort <-chan struct{}) *peerMesh {
	m := &peerMesh{
		self:    self,
		addrs:   addrs,
		retry:   retry,
		timeout: timeout,
		store:   st,
		observe: observe,
		abort:   abort,
		links:   make(map[int]*peerLink),
		ln:      ln,
	}
	m.resume.Store(resume)
	for p := range addrs {
		if p == self {
			continue
		}
		m.links[p] = newPeerLink(m, p)
	}
	if ln != nil {
		m.wg.Add(1)
		go m.acceptLoop()
	}
	for p, l := range m.links {
		if p < self {
			m.wg.Add(1)
			go m.dialLoop(l)
		}
	}
	return m
}

// close tears the mesh down: the listener, every live connection, and the
// supervisor goroutines.
func (m *peerMesh) close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.ln != nil {
		m.ln.Close()
	}
	for _, l := range m.links {
		l.closeConn()
	}
	m.wg.Wait()
}

// awaitConnected blocks until every link has attached at least once (or
// the timeout passes). It does not guarantee the links are still up — the
// supervisors keep them so.
func (m *peerMesh) awaitConnected() error {
	deadline := time.Now().Add(m.timeout)
	for _, l := range m.links {
		select {
		case <-l.everUp:
		case <-m.abort:
			return errNodeAborted
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("distributed: shard %d: no connection from peer %d within %v", m.self, l.peer, m.timeout)
		}
	}
	return nil
}

// status samples one link's PeerStatus.
func (m *peerMesh) status(l *peerLink) PeerStatus {
	l.mu.Lock()
	st := PeerStatus{
		Shard:       l.peer,
		Addr:        m.addrs[l.peer],
		Connected:   l.conn != nil,
		Reconnects:  l.reconnects,
		LastContact: l.lastContact,
	}
	l.mu.Unlock()
	if m.store != nil {
		st.Epoch = m.store.PeerEpochs()[l.peer]
		st.Lag = m.store.PeerLag()[l.peer]
	}
	return st
}

func (m *peerMesh) notify(l *peerLink) {
	if m.observe != nil {
		m.observe(m.status(l))
	}
}

// acceptLoop takes incoming peer connections for the lower-index side of
// each link. The hello identifies which shard is dialing; a malformed
// handshake drops the connection without disturbing established links.
func (m *peerMesh) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return // listener closed: mesh shutting down
		}
		m.wg.Add(1)
		go func(nc net.Conn) {
			defer m.wg.Done()
			c := NewNetConn(nc)
			hello, err := c.Recv()
			if err != nil || hello.Kind != wire.KindHello {
				c.Close()
				return
			}
			p := hello.Hello.User
			l, ok := m.links[p]
			if !ok || p <= m.self {
				c.Close() // unknown shard, or a peer we dial ourselves
				return
			}
			if err := c.Send(m.helloMsg()); err != nil {
				c.Close()
				return
			}
			l.attach(c, hello.Hello.Resume)
		}(nc)
	}
}

// dialLoop keeps one link to a lower-index peer alive: dial (retrying
// while the peer is down), handshake, attach, wait for the connection to
// die, redial.
func (m *peerMesh) dialLoop(l *peerLink) {
	defer m.wg.Done()
	for !m.closed.Load() {
		c, peerHello, err := m.dialOnce(l)
		if err != nil {
			if m.closed.Load() {
				return
			}
			time.Sleep(m.retry)
			continue
		}
		down := l.attach(c, peerHello.Resume)
		<-down
	}
}

// dialOnce makes one connection attempt with the full hello exchange.
func (m *peerMesh) dialOnce(l *peerLink) (Conn, *wire.Hello, error) {
	nc, err := net.DialTimeout("tcp", m.addrs[l.peer], m.retry)
	if err != nil {
		return nil, nil, err
	}
	c := NewNetConn(nc)
	if err := c.Send(m.helloMsg()); err != nil {
		c.Close()
		return nil, nil, err
	}
	reply, err := c.Recv()
	if err != nil || reply.Kind != wire.KindHello || reply.Hello.User != l.peer {
		c.Close()
		return nil, nil, fmt.Errorf("distributed: bad hello from peer %d", l.peer)
	}
	return c, reply.Hello, nil
}

func (m *peerMesh) helloMsg() *wire.Message {
	return &wire.Message{Kind: wire.KindHello, From: m.self,
		Hello: &wire.Hello{User: m.self, Resume: m.resume.Load()}}
}

// broadcastGossip sends one round-stamped gossip batch to every peer (and
// into every replay ring).
func (m *peerMesh) broadcastGossip(d *wire.GossipDelta, round int) {
	msg := &wire.Message{Kind: wire.KindGossipDelta, Epoch: uint32(round), From: -1, GossipDelta: d}
	for _, l := range m.links {
		l.sendGossip(msg)
	}
}

// broadcastRequests sends this shard's request batch for a slot to every
// peer (and into every replay ring).
func (m *peerMesh) broadcastRequests(sr *wire.ShardRequests) {
	msg := &wire.Message{Kind: wire.KindShardRequests, Epoch: uint32(sr.Slot), From: -1, ShardRequests: sr}
	for _, l := range m.links {
		l.sendRequests(msg)
	}
}

// peerLink is one supervised link. The conn may come and go; the inboxes
// and replay rings persist across reconnects.
type peerLink struct {
	mesh *peerMesh
	peer int

	// Demuxed inboxes, filled by the reader pump. Gossip and requests are
	// deep enough to absorb replays plus the live flow of the ≤1-round
	// drift the barrier allows; snapshots only flow during recovery.
	gossipCh chan *wire.Message
	reqCh    chan *wire.ShardRequests
	snapCh   chan *wire.Snapshot

	everUp   chan struct{} // closed on first attach
	everOnce sync.Once

	mu          sync.Mutex
	conn        Conn
	gen         int // connection generation; stale pumps detach no one
	reconnects  int
	lastContact time.Time
	ringGossip  []*wire.Message
	ringReqs    []*wire.Message
}

func newPeerLink(m *peerMesh, peer int) *peerLink {
	return &peerLink{
		mesh:     m,
		peer:     peer,
		gossipCh: make(chan *wire.Message, 256),
		reqCh:    make(chan *wire.ShardRequests, 64),
		snapCh:   make(chan *wire.Snapshot, 4),
		everUp:   make(chan struct{}),
	}
}

// attach installs a freshly handshaken connection: serve a snapshot if the
// peer asked for one (its hello carried resume), replay both rings, and
// start the reader pump. Returns a channel closed when this connection
// dies. Any previous connection is displaced.
func (l *peerLink) attach(c Conn, peerResume bool) <-chan struct{} {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.reconnects++
	} else if l.gen > 0 {
		l.reconnects++
	}
	l.conn = c
	l.gen++
	gen := l.gen
	// The snapshot must precede the replays on the wire: a recovering peer
	// adopts a snapshot first and then lets epoch dedup sort the replayed
	// batches against it.
	if peerResume && l.mesh.store != nil {
		sn := l.mesh.store.Snapshot(int(l.mesh.round.Load()))
		c.Send(&wire.Message{Kind: wire.KindSnapshot, From: -1, Snapshot: sn})
	}
	for _, m := range l.ringGossip {
		c.Send(m)
	}
	for _, m := range l.ringReqs {
		c.Send(m)
	}
	down := make(chan struct{})
	l.mu.Unlock()
	l.everOnce.Do(func() { close(l.everUp) })
	l.mesh.notify(l)
	l.mesh.wg.Add(1)
	go l.pump(c, gen, down)
	return down
}

// pump reads one connection until it dies, demuxing messages into the
// per-kind inboxes.
func (l *peerLink) pump(c Conn, gen int, down chan struct{}) {
	defer l.mesh.wg.Done()
	defer close(down)
	defer l.detach(c, gen)
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		l.mu.Lock()
		l.lastContact = time.Now()
		l.mu.Unlock()
		switch m.Kind {
		case wire.KindGossipDelta:
			l.gossipCh <- m
		case wire.KindShardRequests:
			l.reqCh <- m.ShardRequests
		case wire.KindSnapshot:
			select {
			case l.snapCh <- m.Snapshot:
			default: // recovery already has one; drop
			}
		case wire.KindHello:
			// Stray re-handshake; harmless.
		default:
			return // protocol violation: drop the connection
		}
	}
}

// detach clears the link's conn if it still is this connection.
func (l *peerLink) detach(c Conn, gen int) {
	l.mu.Lock()
	if l.gen == gen {
		l.conn = nil
	}
	l.mu.Unlock()
	c.Close()
	l.mesh.notify(l)
}

func (l *peerLink) closeConn() {
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// send ring-buffers the message and writes it to the live connection if
// there is one. A dead or absent connection is not an error: the replay
// ring delivers the message when the link re-establishes.
func (l *peerLink) send(m *wire.Message, ring *[]*wire.Message) {
	l.mu.Lock()
	*ring = append(*ring, m)
	if len(*ring) > peerRingSize {
		copy(*ring, (*ring)[1:])
		*ring = (*ring)[:peerRingSize]
	}
	c := l.conn
	if c != nil {
		if err := c.Send(m); err != nil {
			// The pump will notice the dead conn; nothing else to do.
			c.Close()
		}
	}
	l.mu.Unlock()
}

func (l *peerLink) sendGossip(m *wire.Message)   { l.send(m, &l.ringGossip) }
func (l *peerLink) sendRequests(m *wire.Message) { l.send(m, &l.ringReqs) }

// errNodeAborted is what a node's pending peer waits fail with once its
// abort channel closes.
var errNodeAborted = errors.New("distributed: node aborted: a co-located shard failed")

// recvPeer waits for the next message on one of l's inboxes (gossipCh,
// reqCh or snapCh); what names the inbox in the timeout error.
func recvPeer[T any](l *peerLink, ch <-chan T, what string, timeout time.Duration) (T, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	var zero T
	select {
	case m := <-ch:
		return m, nil
	case <-l.mesh.abort:
		return zero, errNodeAborted
	case <-t.C:
		return zero, fmt.Errorf("distributed: no %s from shard %d within %v", what, l.peer, timeout)
	}
}
