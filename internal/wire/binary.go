package wire

// This file implements the hand-rolled binary codec that carries the
// protocol in production. The gob Codec (wire.go) is retained as the
// differential-testing oracle: the golden corpus, the property-based
// differential suite, and the fuzz targets all prove the two agree before
// the binary format is trusted.
//
// Frame layout (see docs/WIRE.md for the full diagram):
//
//	+----------------+------------------------------------------+
//	| length uint32  | frame: fixed header + per-kind body      |
//	| little-endian  | (length counts header+body, not itself)  |
//	+----------------+------------------------------------------+
//
// Fixed header, 41 bytes, all little-endian:
//
//	off  0  magic   2 bytes  'v' 'c'
//	off  2  version 1 byte   BinaryVersion
//	off  3  kind    1 byte   Kind
//	off  4  seq     8 bytes  uint64
//	off 12  epoch   4 bytes  uint32
//	off 16  from    8 bytes  int64 (two's complement)
//	off 24  trace   8 bytes  uint64 TraceID
//	off 32  span    8 bytes  uint64 SpanID
//	off 40  flags   1 byte   TraceFlags
//
// Bodies pack task IDs, counts, slots, and routes as varints (zigzag for
// signed values, uvarint for lengths) and float64s as 8-byte LE IEEE-754
// bits. Maps are encoded with keys in ascending order, so encoding is
// canonical: the same Message always produces the same bytes, which is what
// makes the committed golden corpus a byte-stability oracle.
//
// Nil semantics mirror the gob oracle exactly (proven by the differential
// suite): zero-length slices decode to nil (gob omits empty slices), while
// maps keep the nil/empty distinction — map counts are biased by one on the
// wire (0 = nil map, n+1 = map with n entries).
//
// Decoding is hardened: every read is bounds-checked, collection lengths
// are validated against the remaining frame bytes before any allocation,
// and malformed input of any shape returns an error — never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary frame constants.
const (
	binaryMagic0 = 'v'
	binaryMagic1 = 'c'
	// BinaryVersion is the wire-format version stamped into every frame.
	// Decoders reject frames from other versions; see docs/WIRE.md for the
	// compatibility policy. v2 added KindGossipDelta (shard federation);
	// v3 added KindShardRequests and KindSnapshot (multi-node federation);
	// v4 added Request.Tolerance (certified silence).
	BinaryVersion = 4
	// binaryHeaderLen is the fixed envelope header inside every frame.
	binaryHeaderLen = 41
	// MaxFrameLen bounds the length prefix a decoder honors. Protocol
	// messages are tiny (tens to a few thousand bytes); anything near this
	// limit is hostile or corrupt, and refusing it caps the memory an
	// adversarial stream can make a decoder allocate.
	MaxFrameLen = 1 << 20
	// minReadBuf is the floor of a decoder's read-ahead buffer: room for
	// the length prefix and a typical per-slot frame, so a fresh codec
	// reads its first small frame in one read.
	minReadBuf = 256
)

// Decode error taxonomy. All are returned wrapped in a "wire: decode"
// context; none of them ever surfaces as a panic.
var (
	// ErrFrameTooLarge reports a length prefix above MaxFrameLen.
	ErrFrameTooLarge = errors.New("frame length exceeds MaxFrameLen")
	errShortFrame    = errors.New("frame shorter than fixed header")
	errBadMagic      = errors.New("bad frame magic")
	errTruncated     = errors.New("truncated frame")
	errTrailing      = errors.New("trailing bytes after payload")
	errVarint        = errors.New("malformed varint")
	errLength        = errors.New("collection length exceeds frame")
)

// BinaryCodec encodes and decodes Messages in the binary frame format over
// a byte stream. Encode and DecodeInto reuse per-codec scratch buffers, so
// a warm codec runs allocation-free in steady state; like the gob Codec,
// one codec must not be shared by concurrent writers or concurrent readers.
type BinaryCodec struct {
	w io.Writer
	r io.Reader

	enc  []byte // encode scratch: the whole outgoing frame
	keys []int  // encode scratch: key order of the last map encoded
	// rbuf is the read-ahead buffer, as long as the largest frame seen
	// (length prefix included) and at least minReadBuf; rbuf[rpos:rend]
	// holds bytes read from r but not yet decoded.
	rbuf       []byte
	rpos, rend int
}

// NewBinaryCodec wraps a stream. For a bidirectional connection pass the
// same net.Conn as both reader and writer. The codec owns r from then on:
// it reads ahead, so bytes of later frames may sit in its buffer, and
// nothing else may read r.
func NewBinaryCodec(r io.Reader, w io.Writer) *BinaryCodec {
	return &BinaryCodec{r: r, w: w}
}

// Encode writes one message as a single length-prefixed frame.
func (c *BinaryCodec) Encode(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	buf, keys, err := appendFrame(c.enc[:0], m, c.keys)
	c.keys = keys
	if err != nil {
		return err
	}
	c.enc = buf
	_, err = c.w.Write(buf)
	return err
}

// Decode reads one message, always into fresh storage: the result does not
// alias codec scratch or any previously decoded message.
func (c *BinaryCodec) Decode() (*Message, error) {
	m := new(Message)
	if err := c.DecodeInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto reads one message into m, reusing whatever payload storage m
// already carries (payload structs, maps, slice capacity) when the incoming
// kind matches. Decoding the same kind repeatedly into one message is
// allocation-free in steady state. The previous contents of m — including
// maps and slices other references may alias — are overwritten.
func (c *BinaryCodec) DecodeInto(m *Message) error {
	frame, err := c.readFrame()
	if err != nil {
		return err
	}
	if err := parseFrame(frame, m); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// readFrame returns the next frame (header and body, no length prefix)
// from the read-ahead buffer; it stays valid until the next call. A clean
// EOF at a frame boundary surfaces as io.EOF; EOF mid-frame is an
// unexpected-EOF error.
func (c *BinaryCodec) readFrame() ([]byte, error) {
	if err := c.fill(4); err != nil {
		if err == io.EOF && c.rend == c.rpos {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: decode: reading frame length: %w", unexpectedEOF(err))
	}
	n := binary.LittleEndian.Uint32(c.rbuf[c.rpos:])
	if n < binaryHeaderLen {
		return nil, fmt.Errorf("wire: decode: %w (%d bytes)", errShortFrame, n)
	}
	if n > MaxFrameLen {
		return nil, fmt.Errorf("wire: decode: %w (%d bytes)", ErrFrameTooLarge, n)
	}
	end := 4 + int(n)
	if err := c.fill(end); err != nil {
		return nil, fmt.Errorf("wire: decode: reading frame body: %w", unexpectedEOF(err))
	}
	frame := c.rbuf[c.rpos+4 : c.rpos+end]
	c.rpos += end
	return frame, nil
}

// fill reads until at least need bytes are buffered. Before each read it
// moves the unread bytes to the front and grows the buffer to need if it is
// shorter, then offers the read all the room left: whatever arrives beyond
// the current frame is kept for the next one. Like io.ReadFull, an error
// that comes with enough bytes is dropped; the next read repeats it.
func (c *BinaryCodec) fill(need int) error {
	for c.rend-c.rpos < need {
		if c.rpos > 0 {
			c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
			c.rpos = 0
		}
		if need > len(c.rbuf) {
			nb := make([]byte, max(need, minReadBuf))
			copy(nb, c.rbuf[:c.rend])
			c.rbuf = nb
		}
		n, err := c.r.Read(c.rbuf[c.rend:])
		c.rend += n
		if err != nil && c.rend-c.rpos < need {
			return err
		}
	}
	return nil
}

// unexpectedEOF maps an EOF inside a frame to io.ErrUnexpectedEOF, as
// io.ReadFull reports it.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadRawFrame reads one length-prefixed frame from r and returns the
// complete encoded bytes, including the 4-byte length prefix — exactly what
// a relay writes verbatim to another stream. The front-door router uses it
// to capture an agent's Hello, decode it for routing, and replay the
// original bytes to the owning shard without re-encoding.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: decode: reading frame length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < binaryHeaderLen {
		return nil, fmt.Errorf("wire: decode: %w (%d bytes)", errShortFrame, n)
	}
	if n > MaxFrameLen {
		return nil, fmt.Errorf("wire: decode: %w (%d bytes)", ErrFrameTooLarge, n)
	}
	buf := make([]byte, 4+int(n))
	copy(buf, lenb[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, fmt.Errorf("wire: decode: reading frame body: %w", err)
	}
	return buf, nil
}

// FrameHeadLen is how many leading bytes of a connection IsFrameHead needs.
const FrameHeadLen = 6

// IsFrameHead reports whether head, the first FrameHeadLen bytes of a
// connection, starts a plain length-prefixed frame rather than a mux
// session: a plain frame carries the magic 'v','c' right after its 4-byte
// length prefix. A mux session opens with a uvarint channel ID, a frame
// type byte and a data frame's length prefix. For a channel ID of one or
// two varint bytes, byte 5 is then a high byte of a length below
// MaxFrameLen, at most 0x0f and never 'c' (0x63). For a three-byte ID (the
// mux accepts IDs up to 1<<20) bytes 4 and 5 are the low bytes of the first
// frame's length; that frame is an agent's Hello, far shorter than the
// 0x63xx bytes the magic would need.
func IsFrameHead(head []byte) bool {
	return len(head) >= FrameHeadLen && head[4] == binaryMagic0 && head[5] == binaryMagic1
}

// DecodeRawFrame decodes a frame captured by ReadRawFrame (length prefix
// included) into a freshly allocated Message.
func DecodeRawFrame(raw []byte) (*Message, error) {
	if len(raw) < 4+binaryHeaderLen {
		return nil, fmt.Errorf("wire: decode: %w (%d bytes)", errShortFrame, len(raw))
	}
	m := new(Message)
	if err := parseFrame(raw[4:], m); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return m, nil
}

// AppendFrame appends m encoded as one length-prefixed binary frame to dst
// and returns the extended slice. It is the allocation-friendly building
// block the mux uses to pre-encode frames into per-channel queues.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	out, _, err := appendFrame(dst, m, nil)
	return out, err
}

// appendFrame appends the length prefix, fixed header, and body. keys is
// the caller's map-order scratch (see appendMap; nil is always valid); the
// updated scratch is returned for the caller's next frame.
func appendFrame(dst []byte, m *Message, keys []int) ([]byte, []int, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, binaryMagic0, binaryMagic1, BinaryVersion, byte(m.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, m.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.From)))
	dst = binary.LittleEndian.AppendUint64(dst, m.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, m.SpanID)
	dst = append(dst, m.TraceFlags)
	var err error
	dst, keys, err = appendBody(dst, m, keys)
	if err != nil {
		return dst[:base], keys, err
	}
	n := len(dst) - base - 4
	if n > MaxFrameLen {
		return dst[:base], keys, fmt.Errorf("wire: encode: %w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(n))
	return dst, keys, nil
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendIntSlice(dst []byte, s []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// appendMap appends a map in canonical form: a biased entry count (0 = nil
// map, n+1 = n entries), then each key and its value in ascending key
// order. keys is the order of the previous map this scratch encoded, always
// sorted and distinct. When m has as many entries as keys and holds every
// one of them, the key sets are equal and keys is already m's canonical
// order; the lookups that prove it fetch the values being written. Any
// other map pays the collect-and-sort, which becomes the cached order.
func appendMap[V any](dst []byte, m map[int]V, keys []int, value func([]byte, V) []byte) ([]byte, []int) {
	if m == nil {
		return append(dst, 0), keys
	}
	dst = binary.AppendUvarint(dst, uint64(len(m))+1)
	if len(keys) == len(m) {
		mark := len(dst)
		hit := true
		for _, k := range keys {
			v, ok := m[k]
			if !ok {
				hit = false
				break
			}
			dst = binary.AppendVarint(dst, int64(k))
			dst = value(dst, v)
		}
		if hit {
			return dst, keys
		}
		dst = dst[:mark]
	}
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = binary.AppendVarint(dst, int64(k))
		dst = value(dst, m[k])
	}
	return dst, keys
}

func appendCount(dst []byte, n int) []byte { return binary.AppendVarint(dst, int64(n)) }

func appendTaskParam(dst []byte, p TaskParam) []byte {
	return appendFloat(appendFloat(dst, p.A), p.Mu)
}

// appendBody encodes the kind-specific payload. keys is the map-order
// scratch appendMap reads and returns.
func appendBody(dst []byte, m *Message, keys []int) ([]byte, []int, error) {
	switch m.Kind {
	case KindHello:
		dst = binary.AppendVarint(dst, int64(m.Hello.User))
		dst = appendBool(dst, m.Hello.Resume)
	case KindInit:
		in := m.Init
		dst = binary.AppendVarint(dst, int64(in.User))
		dst = binary.AppendVarint(dst, int64(in.CurrentRoute))
		dst = binary.AppendUvarint(dst, uint64(len(in.Routes)))
		for i := range in.Routes {
			r := &in.Routes[i]
			dst = appendIntSlice(dst, r.Tasks)
			dst = appendFloat(dst, r.DetourCost)
			dst = appendFloat(dst, r.CongestionCost)
		}
		dst, keys = appendMap(dst, in.Tasks, keys, appendTaskParam)
	case KindSlotInfo:
		si := m.SlotInfo
		dst = binary.AppendVarint(dst, int64(si.Slot))
		dst, keys = appendMap(dst, si.Counts, keys, appendCount)
	case KindRequest:
		r := m.Request
		dst = binary.AppendVarint(dst, int64(r.Slot))
		dst = appendBool(dst, r.HasUpdate)
		dst = binary.AppendVarint(dst, int64(r.Route))
		dst = appendFloat(dst, r.Tau)
		dst = appendIntSlice(dst, r.B)
		dst = binary.AppendUvarint(dst, r.Tolerance)
	case KindGrant:
		dst = binary.AppendVarint(dst, int64(m.Grant.Slot))
	case KindDecision:
		dst = binary.AppendVarint(dst, int64(m.Decision.Slot))
		dst = binary.AppendVarint(dst, int64(m.Decision.Route))
	case KindTerminate:
		dst = binary.AppendVarint(dst, int64(m.Terminate.Slot))
	case KindGossipDelta:
		g := m.GossipDelta
		dst = binary.AppendVarint(dst, int64(g.Shard))
		dst = binary.AppendVarint(dst, int64(g.Epoch))
		dst, keys = appendMap(dst, g.Counts, keys, appendCount)
	case KindShardRequests:
		sr := m.ShardRequests
		dst = binary.AppendVarint(dst, int64(sr.Shard))
		dst = binary.AppendVarint(dst, int64(sr.Slot))
		dst = appendBool(dst, sr.Terminating)
		dst = binary.AppendUvarint(dst, uint64(len(sr.Reqs)))
		for i := range sr.Reqs {
			q := &sr.Reqs[i]
			dst = binary.AppendVarint(dst, int64(q.User))
			dst = binary.AppendVarint(dst, int64(q.Route))
			dst = appendFloat(dst, q.Tau)
			dst = appendIntSlice(dst, q.B)
		}
	case KindSnapshot:
		sn := m.Snapshot
		dst = binary.AppendVarint(dst, int64(sn.Shard))
		dst = binary.AppendVarint(dst, int64(sn.Round))
		dst = appendIntSlice(dst, sn.Epochs)
		dst = appendIntSlice(dst, sn.Counts)
		dst = binary.AppendUvarint(dst, uint64(len(sn.Contrib)))
		for _, row := range sn.Contrib {
			dst = appendIntSlice(dst, row)
		}
	default:
		return dst, keys, fmt.Errorf("wire: encode: unknown kind %d", m.Kind)
	}
	return dst, keys, nil
}

// frameReader is a bounds-checked cursor over one frame's body.
type frameReader struct {
	b []byte
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errVarint
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *frameReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errVarint
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *frameReader) float() (float64, error) {
	if len(r.b) < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v, nil
}

func (r *frameReader) bool() (bool, error) {
	if len(r.b) < 1 {
		return false, errTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0, nil
}

// length reads a collection length and validates it against the bytes left
// in the frame (minElem is the smallest possible encoded element), so a
// hostile length prefix can never force a large allocation.
func (r *frameReader) length(minElem int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)/minElem) {
		return 0, errLength
	}
	return int(v), nil
}

// mapLength reads a biased map count: 0 means a nil map (isNil true), n+1
// means n entries. Like length, the entry count is validated against the
// remaining frame bytes before the caller allocates anything.
func (r *frameReader) mapLength(minElem int) (n int, isNil bool, err error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, true, nil
	}
	v--
	if v > uint64(len(r.b)/minElem) {
		return 0, false, errLength
	}
	return int(v), false, nil
}

// intSlice decodes a varint-packed []int, reusing old's capacity. A zero
// length decodes to nil, matching what a gob round trip produces for empty
// slices.
func (r *frameReader) intSlice(old []int) ([]int, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := old[:0]
	for i := 0; i < n; i++ {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		s = append(s, int(v))
	}
	return s, nil
}

// parseFrame decodes one frame (header + body, no length prefix) into m,
// reusing m's existing payload storage where the kinds line up.
func parseFrame(frame []byte, m *Message) error {
	if len(frame) < binaryHeaderLen {
		return errShortFrame
	}
	if frame[0] != binaryMagic0 || frame[1] != binaryMagic1 {
		return errBadMagic
	}
	if frame[2] != BinaryVersion {
		return fmt.Errorf("unsupported frame version %d (want %d)", frame[2], BinaryVersion)
	}
	kind := Kind(frame[3])
	old := *m
	*m = Message{
		Kind:       kind,
		Seq:        binary.LittleEndian.Uint64(frame[4:]),
		Epoch:      binary.LittleEndian.Uint32(frame[12:]),
		From:       int(int64(binary.LittleEndian.Uint64(frame[16:]))),
		TraceID:    binary.LittleEndian.Uint64(frame[24:]),
		SpanID:     binary.LittleEndian.Uint64(frame[32:]),
		TraceFlags: frame[40],
	}
	r := frameReader{b: frame[binaryHeaderLen:]}
	var err error
	switch kind {
	case KindHello:
		err = parseHello(&r, m, old.Hello)
	case KindInit:
		err = parseInit(&r, m, old.Init)
	case KindSlotInfo:
		err = parseSlotInfo(&r, m, old.SlotInfo)
	case KindRequest:
		err = parseRequest(&r, m, old.Request)
	case KindGrant:
		err = parseGrant(&r, m, old.Grant)
	case KindDecision:
		err = parseDecision(&r, m, old.Decision)
	case KindTerminate:
		err = parseTerminate(&r, m, old.Terminate)
	case KindGossipDelta:
		err = parseGossipDelta(&r, m, old.GossipDelta)
	case KindShardRequests:
		err = parseShardRequests(&r, m, old.ShardRequests)
	case KindSnapshot:
		err = parseSnapshot(&r, m, old.Snapshot)
	default:
		return fmt.Errorf("unknown kind %d", frame[3])
	}
	if err != nil {
		return err
	}
	if len(r.b) != 0 {
		return errTrailing
	}
	return nil
}

func parseHello(r *frameReader, m *Message, old *Hello) error {
	user, err := r.varint()
	if err != nil {
		return err
	}
	resume, err := r.bool()
	if err != nil {
		return err
	}
	if old == nil {
		old = new(Hello)
	}
	*old = Hello{User: int(user), Resume: resume}
	m.Hello = old
	return nil
}

func parseInit(r *frameReader, m *Message, old *Init) error {
	if old == nil {
		old = new(Init)
	}
	user, err := r.varint()
	if err != nil {
		return err
	}
	current, err := r.varint()
	if err != nil {
		return err
	}
	// A route encodes at least a task count (1 byte) plus two float64s.
	nr, err := r.length(17)
	if err != nil {
		return err
	}
	routes := old.Routes
	if nr == 0 {
		routes = nil
	} else {
		if cap(routes) >= nr {
			routes = routes[:nr]
		} else {
			routes = make([]RouteInfo, nr)
		}
		for i := range routes {
			tasks, err := r.intSlice(routes[i].Tasks)
			if err != nil {
				return err
			}
			d, err := r.float()
			if err != nil {
				return err
			}
			cg, err := r.float()
			if err != nil {
				return err
			}
			routes[i] = RouteInfo{Tasks: tasks, DetourCost: d, CongestionCost: cg}
		}
	}
	// A task-param entry is at least a 1-byte key plus two float64s.
	nt, nilMap, err := r.mapLength(17)
	if err != nil {
		return err
	}
	params := old.Tasks
	if nilMap {
		params = nil
	} else {
		if params == nil {
			params = make(map[int]TaskParam, nt)
		} else {
			clear(params)
		}
		for i := 0; i < nt; i++ {
			k, err := r.varint()
			if err != nil {
				return err
			}
			a, err := r.float()
			if err != nil {
				return err
			}
			mu, err := r.float()
			if err != nil {
				return err
			}
			params[int(k)] = TaskParam{A: a, Mu: mu}
		}
	}
	*old = Init{User: int(user), Routes: routes, Tasks: params, CurrentRoute: int(current)}
	m.Init = old
	return nil
}

func parseSlotInfo(r *frameReader, m *Message, old *SlotInfo) error {
	if old == nil {
		old = new(SlotInfo)
	}
	slot, err := r.varint()
	if err != nil {
		return err
	}
	// A counts entry is at least a 1-byte key plus a 1-byte value.
	n, nilMap, err := r.mapLength(2)
	if err != nil {
		return err
	}
	counts := old.Counts
	if nilMap {
		counts = nil
	} else {
		if counts == nil {
			counts = make(map[int]int, n)
		} else {
			clear(counts)
		}
		for i := 0; i < n; i++ {
			k, err := r.varint()
			if err != nil {
				return err
			}
			v, err := r.varint()
			if err != nil {
				return err
			}
			counts[int(k)] = int(v)
		}
	}
	*old = SlotInfo{Slot: int(slot), Counts: counts}
	m.SlotInfo = old
	return nil
}

func parseRequest(r *frameReader, m *Message, old *Request) error {
	if old == nil {
		old = new(Request)
	}
	slot, err := r.varint()
	if err != nil {
		return err
	}
	has, err := r.bool()
	if err != nil {
		return err
	}
	route, err := r.varint()
	if err != nil {
		return err
	}
	tau, err := r.float()
	if err != nil {
		return err
	}
	b, err := r.intSlice(old.B)
	if err != nil {
		return err
	}
	tol, err := r.uvarint()
	if err != nil {
		return err
	}
	*old = Request{Slot: int(slot), HasUpdate: has, Route: int(route), Tau: tau, B: b, Tolerance: tol}
	m.Request = old
	return nil
}

func parseGrant(r *frameReader, m *Message, old *Grant) error {
	slot, err := r.varint()
	if err != nil {
		return err
	}
	if old == nil {
		old = new(Grant)
	}
	*old = Grant{Slot: int(slot)}
	m.Grant = old
	return nil
}

func parseDecision(r *frameReader, m *Message, old *Decision) error {
	slot, err := r.varint()
	if err != nil {
		return err
	}
	route, err := r.varint()
	if err != nil {
		return err
	}
	if old == nil {
		old = new(Decision)
	}
	*old = Decision{Slot: int(slot), Route: int(route)}
	m.Decision = old
	return nil
}

func parseTerminate(r *frameReader, m *Message, old *Terminate) error {
	slot, err := r.varint()
	if err != nil {
		return err
	}
	if old == nil {
		old = new(Terminate)
	}
	*old = Terminate{Slot: int(slot)}
	m.Terminate = old
	return nil
}

func parseGossipDelta(r *frameReader, m *Message, old *GossipDelta) error {
	if old == nil {
		old = new(GossipDelta)
	}
	shard, err := r.varint()
	if err != nil {
		return err
	}
	epoch, err := r.varint()
	if err != nil {
		return err
	}
	// A counts entry is at least a 1-byte key plus a 1-byte value.
	n, nilMap, err := r.mapLength(2)
	if err != nil {
		return err
	}
	counts := old.Counts
	if nilMap {
		counts = nil
	} else {
		if counts == nil {
			counts = make(map[int]int, n)
		} else {
			clear(counts)
		}
		for i := 0; i < n; i++ {
			k, err := r.varint()
			if err != nil {
				return err
			}
			v, err := r.varint()
			if err != nil {
				return err
			}
			counts[int(k)] = int(v)
		}
	}
	*old = GossipDelta{Shard: int(shard), Epoch: int(epoch), Counts: counts}
	m.GossipDelta = old
	return nil
}

func parseShardRequests(r *frameReader, m *Message, old *ShardRequests) error {
	if old == nil {
		old = new(ShardRequests)
	}
	shard, err := r.varint()
	if err != nil {
		return err
	}
	slot, err := r.varint()
	if err != nil {
		return err
	}
	term, err := r.bool()
	if err != nil {
		return err
	}
	// A request encodes at least user, route, a float64 τ, and a B length.
	n, err := r.length(11)
	if err != nil {
		return err
	}
	reqs := old.Reqs
	if n == 0 {
		reqs = nil
	} else {
		if cap(reqs) >= n {
			reqs = reqs[:n]
		} else {
			reqs = make([]ShardRequest, n)
		}
		for i := range reqs {
			user, err := r.varint()
			if err != nil {
				return err
			}
			route, err := r.varint()
			if err != nil {
				return err
			}
			tau, err := r.float()
			if err != nil {
				return err
			}
			b, err := r.intSlice(reqs[i].B)
			if err != nil {
				return err
			}
			reqs[i] = ShardRequest{User: int(user), Route: int(route), Tau: tau, B: b}
		}
	}
	*old = ShardRequests{Shard: int(shard), Slot: int(slot), Terminating: term, Reqs: reqs}
	m.ShardRequests = old
	return nil
}

func parseSnapshot(r *frameReader, m *Message, old *Snapshot) error {
	if old == nil {
		old = new(Snapshot)
	}
	shard, err := r.varint()
	if err != nil {
		return err
	}
	round, err := r.varint()
	if err != nil {
		return err
	}
	epochs, err := r.intSlice(old.Epochs)
	if err != nil {
		return err
	}
	counts, err := r.intSlice(old.Counts)
	if err != nil {
		return err
	}
	// A contribution row encodes at least its length byte.
	n, err := r.length(1)
	if err != nil {
		return err
	}
	contrib := old.Contrib
	if n == 0 {
		contrib = nil
	} else {
		if cap(contrib) >= n {
			contrib = contrib[:n]
		} else {
			contrib = make([][]int, n)
		}
		for i := range contrib {
			row, err := r.intSlice(contrib[i])
			if err != nil {
				return err
			}
			contrib[i] = row
		}
	}
	*old = Snapshot{Shard: int(shard), Round: int(round), Epochs: epochs, Counts: counts, Contrib: contrib}
	m.Snapshot = old
	return nil
}
