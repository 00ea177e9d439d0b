// Package wire defines the message vocabulary spoken between the platform
// (Algorithm 2) and the user agents (Algorithm 1), and two codecs for
// carrying it over byte streams (TCP): the hand-rolled binary codec
// (binary.go, the production transport encoding, allocation-free in steady
// state) and the original gob Codec, retained as the differential-testing
// oracle the binary format is proven against. A frame-level multiplexer
// (mux.go) carries many agent streams over one connection. The same
// messages flow over in-process channel transports in package distributed.
// See docs/WIRE.md for the frame layout and compatibility policy.
//
// The protocol is deliberately information-minimal, matching the paper's
// privacy argument: a user never learns other users' identities, routes, or
// decisions — only the participant counts n_k for tasks its own recommended
// routes cover, and the platform-computed costs d(r), b(r).
package wire

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Kind discriminates message types.
type Kind int

// Message kinds, in rough protocol order.
const (
	KindInvalid Kind = iota
	// KindHello is sent by an agent when it connects (or reconnects after a
	// crash) to identify itself.
	KindHello
	// KindInit carries the recommended route set R_i with platform-computed
	// costs d(r), b(r) and the reward parameters of covered tasks
	// (Algorithm 1 lines 2 and 7; Algorithm 2 lines 1 and 4).
	KindInit
	// KindSlotInfo opens a decision slot: current n_k for the tasks the
	// user's routes cover (Algorithm 1 line 9).
	KindSlotInfo
	// KindRequest is the user's reply: whether it wants to update, the
	// proposed route, and the PUU metadata τ_i and B_i (Algorithm 1 line
	// 12; Algorithm 3 inputs).
	KindRequest
	// KindGrant tells a user it won the update opportunity (Algorithm 1
	// line 13).
	KindGrant
	// KindDecision reports the user's (initial or updated) route decision
	// (Algorithm 1 lines 4 and 15).
	KindDecision
	// KindTerminate ends the protocol: an equilibrium was reached
	// (Algorithm 2 line 12).
	KindTerminate
	// KindGossipDelta carries a batch of per-task participation-count
	// deltas between platform shards (package distributed/federation): the
	// net n_k changes a shard applied since its previous batch, stamped
	// with the sender's gossip epoch so receivers can drop duplicates and
	// detect gaps.
	KindGossipDelta
	// KindShardRequests carries one shard's full per-slot batch of agent
	// improvement requests to its federation peers (multi-node mode): every
	// shard broadcasts its own batch, then all shards deterministically
	// compute the identical global winner set from the merged batches.
	KindShardRequests
	// KindSnapshot is a full-state transfer of the replicated count store,
	// served to a peer that reconnects after a crash: consistent counts,
	// the sender's epoch vector, and the per-shard contribution ledger the
	// restarted shard rebuilds its replica (and catch-up deltas) from.
	KindSnapshot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindInit:
		return "init"
	case KindSlotInfo:
		return "slotinfo"
	case KindRequest:
		return "request"
	case KindGrant:
		return "grant"
	case KindDecision:
		return "decision"
	case KindTerminate:
		return "terminate"
	case KindGossipDelta:
		return "gossipdelta"
	case KindShardRequests:
		return "shardrequests"
	case KindSnapshot:
		return "snapshot"
	}
	return "invalid"
}

// RouteInfo is one recommended route as seen by a user: the covered task
// IDs and the platform-weighted costs d(r) = φ·h(r) and b(r) = θ·c(r).
// The raw detour distance and congestion level stay on the platform.
type RouteInfo struct {
	Tasks          []int
	DetourCost     float64
	CongestionCost float64
}

// TaskParam carries a task's public reward parameters (Eq. 1).
type TaskParam struct {
	A, Mu float64
}

// Hello identifies an agent.
type Hello struct {
	User int
	// Resume is set when the agent restarts mid-run and needs its state
	// re-sent.
	Resume bool
}

// Init carries the user's recommended routes and task parameters.
type Init struct {
	User   int
	Routes []RouteInfo
	Tasks  map[int]TaskParam
	// CurrentRoute is the route the platform has on record for this user;
	// -1 on first contact (the agent then chooses randomly per Algorithm 1
	// line 3 and replies with a Decision).
	CurrentRoute int
}

// SlotInfo opens a decision slot.
type SlotInfo struct {
	Slot   int
	Counts map[int]int // n_k for tasks covered by the user's routes
}

// Request is the user's per-slot reply.
type Request struct {
	Slot      int
	HasUpdate bool
	Route     int     // proposed route (valid when HasUpdate)
	Tau       float64 // τ_i = ΔP_i/α_i
	B         []int   // B_i: tasks touched by the move
	// Tolerance, sent when !HasUpdate, is the largest share drift, in
	// core.DriftUnit summed over the user's watched tasks, up to which its
	// best response set provably stays empty (core.SkipBound.Tolerance):
	// until that much drift has piled up, the platform need not ask again.
	Tolerance uint64
}

// Grant awards the update opportunity for a slot.
type Grant struct {
	Slot int
}

// Decision reports a chosen route. Slot 0 is the initial decision.
type Decision struct {
	Slot  int
	Route int
}

// Terminate ends the run.
type Terminate struct {
	Slot int
}

// GossipDelta is one batched count-replication message between platform
// shards. Counts maps task ID to the net change in n_k the sending shard
// applied since its previous batch. Epoch is the sender's gossip epoch:
// it starts at 1 and increments by exactly one per batch, so a receiver
// drops re-deliveries (epoch ≤ last seen) and flags gaps (epoch jumps by
// more than one) instead of silently corrupting its replica. A batch may
// be empty — shards flush every round, moves or not, because the empty
// batch is what tells peers the sender's counts are quiescent.
type GossipDelta struct {
	Shard  int
	Epoch  int
	Counts map[int]int // task ID -> n_k delta
}

// ShardRequest is one user's pending improvement request as relayed
// between federation shards: the proposed route plus the PUU metadata
// (τ_i, B_i) the global selection policies need. It mirrors the agent-side
// Request but names the user explicitly, since the batch aggregates many.
type ShardRequest struct {
	User  int
	Route int
	Tau   float64
	B     []int
}

// ShardRequests is one shard's complete improvement-request batch for one
// decision slot, broadcast to every federation peer in multi-node mode.
// Requests are listed in ascending user order; the receiving shard merges
// the batches in shard order, so every shard derives the same global
// ordering — and therefore the same winner set — without an agreement step.
// Terminating is a farewell marker: the sender saw an empty global merge
// at Slot-1 and has terminated, so a peer still running at Slot knows the
// federation diverged (possible only inside a crash fault window) and can
// fail fast instead of waiting for a batch that will never come.
type ShardRequests struct {
	Shard       int
	Slot        int
	Terminating bool
	Reqs        []ShardRequest
}

// Snapshot transfers the full replicated count-store state to a shard that
// reconnects after a crash. Counts is the sender's consistent (flushed)
// per-task state; Epochs[q] is the sender's view of shard q's gossip epoch
// (its own flushed epoch at index Shard); Contrib[q] is shard q's
// cumulative per-task contribution, satisfying Counts = Σ_q Contrib[q].
// Round is the decision slot the sender is currently executing, which the
// restarted shard uses to rejoin the BSP round structure. The contribution
// ledger is what lets the restarted shard synthesize exact catch-up deltas
// for peers that missed its final pre-crash batches.
type Snapshot struct {
	Shard   int
	Round   int
	Epochs  []int
	Counts  []int
	Contrib [][]int
}

// Message is the single on-the-wire envelope. Exactly one payload field is
// non-nil, matching Kind.
type Message struct {
	Kind Kind
	// Seq is a per-sender sequence number used to drop duplicate
	// deliveries.
	Seq uint64
	// Epoch is the sender's incarnation number. An agent that crashes and
	// reconnects bumps its epoch so its restarted sequence numbers are not
	// mistaken for duplicates of the previous life. The platform stays at
	// epoch 0.
	Epoch uint32
	// From is the sending user ID, or -1 for the platform.
	From int

	// TraceID, SpanID, and TraceFlags carry distributed-tracing context
	// (internal/tracing) across process boundaries: the trace this message
	// belongs to, the sender's span (the remote parent), and bit 0 of
	// TraceFlags marking the trace as sampled. All-zero means "no trace
	// context"; the fields are plain integers so the wire package stays
	// dependency-free.
	TraceID    uint64
	SpanID     uint64
	TraceFlags uint8

	Hello         *Hello
	Init          *Init
	SlotInfo      *SlotInfo
	Request       *Request
	Grant         *Grant
	Decision      *Decision
	Terminate     *Terminate
	GossipDelta   *GossipDelta
	ShardRequests *ShardRequests
	Snapshot      *Snapshot
}

// Validate checks that exactly one payload is set and that it matches the
// kind. Rejecting extra payloads (not just a missing one) keeps the two
// codecs equivalent: the binary encoding carries only the payload named by
// Kind, so a message smuggling additional payloads would silently lose
// them on the wire.
func (m *Message) Validate() error {
	n := 0
	for _, set := range [...]bool{
		m.Hello != nil, m.Init != nil, m.SlotInfo != nil, m.Request != nil,
		m.Grant != nil, m.Decision != nil, m.Terminate != nil,
		m.GossipDelta != nil, m.ShardRequests != nil, m.Snapshot != nil,
	} {
		if set {
			n++
		}
	}
	var ok bool
	switch m.Kind {
	case KindHello:
		ok = m.Hello != nil
	case KindInit:
		ok = m.Init != nil
	case KindSlotInfo:
		ok = m.SlotInfo != nil
	case KindRequest:
		ok = m.Request != nil
	case KindGrant:
		ok = m.Grant != nil
	case KindDecision:
		ok = m.Decision != nil
	case KindTerminate:
		ok = m.Terminate != nil
	case KindGossipDelta:
		ok = m.GossipDelta != nil
	case KindShardRequests:
		ok = m.ShardRequests != nil
	case KindSnapshot:
		ok = m.Snapshot != nil
	}
	if !ok {
		return fmt.Errorf("wire: message kind %v with missing or mismatched payload", m.Kind)
	}
	if n != 1 {
		return fmt.Errorf("wire: message kind %v carries %d payloads, want exactly 1", m.Kind, n)
	}
	return nil
}

// Codec encodes and decodes Messages over a byte stream using encoding/gob.
type Codec struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

// NewCodec wraps a stream. For a bidirectional connection pass the same
// net.Conn as both reader and writer.
func NewCodec(r io.Reader, w io.Writer) *Codec {
	return &Codec{enc: gob.NewEncoder(w), dec: gob.NewDecoder(r)}
}

// Encode writes one message.
func (c *Codec) Encode(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return c.enc.Encode(m)
}

// Decode reads one message. Malformed input — truncated, corrupted, or
// adversarial byte streams — surfaces as an error, never a panic: gob is
// not fully hardened against hostile input, so decoding runs behind a
// recover barrier.
func (c *Codec) Decode() (m *Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("wire: decode panic on malformed stream: %v", r)
		}
	}()
	var msg Message
	if err := c.dec.Decode(&msg); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	if err := msg.Validate(); err != nil {
		return nil, err
	}
	return &msg, nil
}
