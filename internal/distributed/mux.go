package distributed

// Connection multiplexing: many agent links over one TCP connection. The
// frame-level machinery lives in wire (wire.Mux); this file adapts it to the
// Conn contract, so a platform can hold thousands of agents on a handful of
// sockets instead of a socket each. Channel ID = user ID. The agent
// listener of ServeTCP and ServeNode takes mux sessions and plain agent
// connections alike (acceptLinks), and DialTCP opens a session whenever it
// runs several agents.

import (
	"fmt"
	"io"

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
