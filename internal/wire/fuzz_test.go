package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// corpusMessages covers every message kind with representative payloads;
// the fuzz targets and the truncation/corruption tests all start from it.
func corpusMessages() []*Message {
	return []*Message{
		{Kind: KindHello, Seq: 1, From: 2, Hello: &Hello{User: 2, Resume: true}},
		{Kind: KindInit, Seq: 2, Epoch: 1, From: -1, Init: &Init{
			User: 2,
			Routes: []RouteInfo{
				{Tasks: []int{0, 4}, DetourCost: 1.25, CongestionCost: 0.5},
				{Tasks: nil, DetourCost: 0, CongestionCost: 3},
			},
			Tasks:        map[int]TaskParam{0: {A: 11, Mu: 0.2}, 4: {A: 19.5, Mu: 0.8}},
			CurrentRoute: -1,
		}},
		{Kind: KindSlotInfo, Seq: 3, From: -1,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1234, TraceFlags: 1,
			SlotInfo: &SlotInfo{Slot: 5, Counts: map[int]int{0: 3, 4: 1}}},
		{Kind: KindRequest, Seq: 4, Epoch: 2, From: 2,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1235, TraceFlags: 1,
			Request: &Request{Slot: 5, HasUpdate: true, Route: 1, Tau: 0.25, B: []int{0, 4}}},
		{Kind: KindRequest, Seq: 5, Epoch: 2, From: 2,
			Request: &Request{Slot: 6, Tolerance: 0x2a_1234_5678}},
		{Kind: KindGrant, Seq: 5, From: -1, Grant: &Grant{Slot: 5}},
		{Kind: KindDecision, Seq: 6, From: 2, Decision: &Decision{Slot: 5, Route: 1}},
		{Kind: KindTerminate, Seq: 7, From: -1, Terminate: &Terminate{Slot: 6}},
		{Kind: KindGossipDelta, Seq: 8, Epoch: 1, From: -1,
			GossipDelta: &GossipDelta{Shard: 1, Epoch: 3, Counts: map[int]int{0: 1, 4: -1}}},
		{Kind: KindShardRequests, Seq: 9, Epoch: 1, From: -1,
			ShardRequests: &ShardRequests{Shard: 1, Slot: 5, Reqs: []ShardRequest{
				{User: 2, Route: 1, Tau: 0.5, B: []int{0, 4}},
			}}},
		{Kind: KindSnapshot, Seq: 10, From: -1,
			Snapshot: &Snapshot{Shard: 0, Round: 5, Epochs: []int{6, 5},
				Counts: []int{1, 0, 2}, Contrib: [][]int{{1, 0, 0}, {0, 0, 2}}}},
	}
}

func encodeAll(t testing.TB, msgs []*Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewCodec(&buf, &buf)
	for _, m := range msgs {
		if err := c.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzCodecDecode feeds arbitrary byte streams to Decode. Whatever the
// bytes, Decode must return a message or an error — never panic — and any
// message it accepts must pass Validate and re-encode cleanly.
func FuzzCodecDecode(f *testing.F) {
	for _, m := range corpusMessages() {
		f.Add(encodeAll(f, []*Message{m}))
	}
	full := encodeAll(f, corpusMessages())
	f.Add(full)
	// Truncations and single-byte corruptions of a valid stream are the
	// interesting neighborhoods; seed a few so even the seed-corpus-only CI
	// pass exercises them.
	f.Add(full[:len(full)/2])
	f.Add(full[:1])
	f.Add([]byte{})
	if len(full) > 10 {
		corrupt := append([]byte(nil), full...)
		corrupt[10] ^= 0xff
		f.Add(corrupt)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(bytes.NewReader(data), nil)
		for i := 0; i < 64; i++ { // bound work on streams with many messages
			m, err := c.Decode()
			if err != nil {
				return // any error is fine; panics are caught by the runtime
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Decode returned invalid message: %v", err)
			}
			var out bytes.Buffer
			if err := NewCodec(nil, &out).Encode(m); err != nil {
				t.Fatalf("accepted message failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzCodecRoundTrip fuzzes structured Request fields — including the
// silence tolerance and the trace-context envelope fields — through a full
// encode/decode cycle: whatever values the fuzzer picks must survive the
// wire exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(5, true, 1, 0.25, uint64(0), uint64(4), uint32(0), uint64(0), uint64(0), uint8(0))
	f.Add(0, false, -3, -1.5, uint64(1<<40+7), uint64(0), uint32(7), uint64(0xdeadbeefcafef00d), uint64(77), uint8(1))
	f.Add(9, true, 2, 0.5, ^uint64(0)-1, uint64(8), uint32(1), ^uint64(0), ^uint64(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, slot int, has bool, route int, tau float64, tol, seq uint64, epoch uint32, trace, span uint64, flags uint8) {
		in := &Message{
			Kind: KindRequest, Seq: seq, Epoch: epoch, From: 1,
			TraceID: trace, SpanID: span, TraceFlags: flags,
			Request: &Request{Slot: slot, HasUpdate: has, Route: route, Tau: tau, B: []int{slot, route}, Tolerance: tol},
		}
		var buf bytes.Buffer
		c := NewCodec(&buf, &buf)
		if err := c.Encode(in); err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed message:\n in %+v\nout %+v", in, out)
		}
	})
}

// goldenFrames loads the committed golden corpus; the binary fuzz targets
// seed from it so mutation starts at real frames of every kind.
func goldenFrames(f *testing.F) [][]byte {
	f.Helper()
	var frames [][]byte
	for _, tc := range goldenCases() {
		data, err := os.ReadFile(filepath.Join("testdata", tc.name+".bin"))
		if err != nil {
			f.Fatalf("golden corpus missing (run -update-golden): %v", err)
		}
		frames = append(frames, data)
	}
	return frames
}

// FuzzBinaryDecode feeds arbitrary byte streams to the binary decoder, in
// reads the fuzzer sizes (see chunkReader; no sizes means uncapped reads).
// Whatever the bytes — truncations, bit-flips, oversized length prefixes —
// Decode must return a message or an error, never panic, and the same one
// as a decoder reading the bytes uncapped. Any message it accepts must be
// valid and a canonical fixpoint: re-encoding the decode of its own
// encoding reproduces the bytes exactly.
func FuzzBinaryDecode(f *testing.F) {
	frames := goldenFrames(f)
	var full []byte
	for _, fr := range frames {
		f.Add(fr, []byte{})
		full = append(full, fr...)
	}
	f.Add(full, []byte{})
	f.Add(full, []byte{0})
	f.Add(full, []byte{2, 40, 7, 255})
	f.Add(full[:len(full)/2], []byte{3})
	f.Add(full[:3], []byte{})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1}) // hostile length prefix
	corrupt := append([]byte(nil), full...)
	corrupt[10] ^= 0xff
	f.Add(corrupt, []byte{5, 60})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		c := NewBinaryCodec(&chunkReader{r: bytes.NewReader(data), sizes: sizes}, nil)
		whole := NewBinaryCodec(bytes.NewReader(data), nil)
		for i := 0; i < 64; i++ { // bound work on streams with many messages
			m, err := c.Decode()
			wm, werr := whole.Decode()
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("split reads failed with %v, uncapped reads with %v", err, werr)
			}
			if err != nil {
				return
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Decode returned invalid message: %v", err)
			}
			e1, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatalf("accepted message failed to re-encode: %v", err)
			}
			// Bytes, not DeepEqual: a decoded float may be NaN.
			if we, err := AppendFrame(nil, wm); err != nil || !bytes.Equal(e1, we) {
				t.Fatalf("split reads decoded % x, uncapped reads % x (%v)", e1, we, err)
			}
			m2, err := NewBinaryCodec(bytes.NewReader(e1), nil).Decode()
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			e2, err := AppendFrame(nil, m2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(e1, e2) {
				t.Fatalf("encoding not canonical:\n e1 % x\n e2 % x", e1, e2)
			}
		}
	})
}

// muxStream prefixes each frame with its channel ID and the data frame
// type, building a valid mux byte stream.
func muxStream(ids []uint64, frames [][]byte) []byte {
	var out []byte
	for i, fr := range frames {
		out = binary.AppendUvarint(out, ids[i%len(ids)])
		out = append(out, muxFrameData)
		out = append(out, fr...)
	}
	return out
}

// FuzzMuxFrames fuzzes the mux demux loop: interleaved channel frames,
// close frames, truncations, bit-flips, and oversized prefixes must all
// surface as errors or valid frames — never a panic — and every accepted
// data frame must carry a valid, re-encodable message.
func FuzzMuxFrames(f *testing.F) {
	frames := goldenFrames(f)
	f.Add(muxStream([]uint64{0}, frames))
	f.Add(muxStream([]uint64{0, 1, 2}, frames)) // interleaved channels
	withClose := muxStream([]uint64{7}, frames[:2])
	withClose = binary.AppendUvarint(withClose, 7)
	withClose = append(withClose, muxFrameClose)
	f.Add(withClose)
	full := muxStream([]uint64{0, 1}, frames)
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00, muxFrameData, 0xff, 0xff, 0xff, 0xff}) // hostile length
	f.Add([]byte{0x00, 0x7f})                                 // unknown frame type
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/3] ^= 0x80
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 256; i++ {
			id, typ, msg, nbuf, err := readMuxFrame(br, buf, 1<<20)
			buf = nbuf
			if err != nil {
				return
			}
			if id > 1<<20 {
				t.Fatalf("accepted out-of-range channel id %d", id)
			}
			if typ == muxFrameData {
				if err := msg.Validate(); err != nil {
					t.Fatalf("accepted invalid message: %v", err)
				}
				if _, err := AppendFrame(nil, msg); err != nil {
					t.Fatalf("accepted message failed to re-encode: %v", err)
				}
			}
		}
	})
}

// TestDecodeTruncated cuts a valid encoded stream at every byte boundary:
// each prefix must produce a clean error (or decode a valid prefix of the
// stream), never a panic.
func TestDecodeTruncated(t *testing.T) {
	full := encodeAll(t, corpusMessages())
	for cut := 0; cut < len(full); cut++ {
		c := NewCodec(bytes.NewReader(full[:cut]), nil)
		for {
			m, err := c.Decode()
			if err != nil {
				break
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("cut %d: decoded invalid message: %v", cut, err)
			}
		}
	}
}

// TestDecodeCorrupted flips each byte of a valid stream in turn; Decode
// must either error out or keep producing valid messages.
func TestDecodeCorrupted(t *testing.T) {
	full := encodeAll(t, corpusMessages())
	for i := range full {
		data := append([]byte(nil), full...)
		data[i] ^= 0x5a
		c := NewCodec(bytes.NewReader(data), nil)
		for j := 0; j < 64; j++ {
			m, err := c.Decode()
			if err != nil {
				break
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("byte %d corrupted: decoded invalid message: %v", i, err)
			}
		}
	}
}
