package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/rng"
)

// The binary codec only ships behind proof: a committed golden corpus (byte
// stability, go-batsd style), a property-based differential suite against
// the gob oracle, reuse/zero-alloc checks, and adversarial decoding tests.

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/wire/testdata golden frames")

// goldenCases covers every kind plus the encoding edge cases: empty B, nil
// maps, nil routes, maximal varints, and all-zero vs sampled trace context.
// Each case is one committed testdata/<name>.bin frame.
func goldenCases() []struct {
	name string
	msg  *Message
} {
	return []struct {
		name string
		msg  *Message
	}{
		{"hello", &Message{Kind: KindHello, Seq: 1, From: 2, Hello: &Hello{User: 2, Resume: true}}},
		{"init", &Message{Kind: KindInit, Seq: 2, Epoch: 1, From: -1, Init: &Init{
			User: 2,
			Routes: []RouteInfo{
				{Tasks: []int{0, 4}, DetourCost: 1.25, CongestionCost: 0.5},
				{Tasks: nil, DetourCost: 0, CongestionCost: 3},
			},
			Tasks:        map[int]TaskParam{0: {A: 11, Mu: 0.2}, 4: {A: 19.5, Mu: 0.8}},
			CurrentRoute: -1,
		}}},
		{"slotinfo", &Message{Kind: KindSlotInfo, Seq: 3, From: -1,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1234, TraceFlags: 1,
			SlotInfo: &SlotInfo{Slot: 5, Counts: map[int]int{0: 3, 4: 1, -7: 2}}}},
		{"request", &Message{Kind: KindRequest, Seq: 4, Epoch: 2, From: 2,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1235, TraceFlags: 1,
			Request: &Request{Slot: 5, HasUpdate: true, Route: 1, Tau: 0.25, B: []int{0, 4}}}},
		{"grant", &Message{Kind: KindGrant, Seq: 5, From: -1, Grant: &Grant{Slot: 5}}},
		{"decision", &Message{Kind: KindDecision, Seq: 6, From: 2, Decision: &Decision{Slot: 5, Route: 1}}},
		{"terminate", &Message{Kind: KindTerminate, Seq: 7, From: -1, Terminate: &Terminate{Slot: 6}}},
		{"gossipdelta", &Message{Kind: KindGossipDelta, Seq: 8, Epoch: 2, From: -1,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1236, TraceFlags: 1,
			GossipDelta: &GossipDelta{Shard: 3, Epoch: 12, Counts: map[int]int{0: 2, 4: -1, -7: 1}}}},
		{"shardrequests", &Message{Kind: KindShardRequests, Seq: 13, Epoch: 3, From: -1,
			TraceID: 0xdeadbeefcafef00d, SpanID: 0x1237, TraceFlags: 1,
			ShardRequests: &ShardRequests{Shard: 1, Slot: 4, Reqs: []ShardRequest{
				{User: 3, Route: 2, Tau: 0.75, B: []int{1, 3}},
				{User: 5, Route: 0, Tau: 0.25, B: nil},
			}}}},
		{"snapshot", &Message{Kind: KindSnapshot, Seq: 14, From: -1,
			Snapshot: &Snapshot{Shard: 0, Round: 6, Epochs: []int{7, 6, 6},
				Counts: []int{2, 0, 1}, Contrib: [][]int{{1, 0, 1}, {1, 0, 0}, {0, 0, 0}}}}},
		// Edge cases.
		{"init_nil", &Message{Kind: KindInit, From: -1, Init: &Init{User: 0, Routes: nil, Tasks: nil, CurrentRoute: -1}}},
		{"request_empty_b", &Message{Kind: KindRequest, Seq: 9, From: 3,
			Request: &Request{Slot: 2, HasUpdate: false, Route: -1, Tau: 0, B: []int{}}}},
		{"request_tolerance", &Message{Kind: KindRequest, Seq: 17, Epoch: 1, From: 3,
			Request: &Request{Slot: 8, Tolerance: 0x2a_1234_5678}}},
		{"slotinfo_nil_counts", &Message{Kind: KindSlotInfo, Seq: 10, From: -1, SlotInfo: &SlotInfo{Slot: 1}}},
		// Nil and empty maps are distinct on the wire (matching gob).
		{"slotinfo_empty_counts", &Message{Kind: KindSlotInfo, Seq: 10, From: -1, SlotInfo: &SlotInfo{Slot: 1, Counts: map[int]int{}}}},
		{"max_varints", &Message{Kind: KindRequest, Seq: ^uint64(0), Epoch: ^uint32(0), From: math.MinInt64,
			Request: &Request{Slot: math.MaxInt64, HasUpdate: true, Route: math.MinInt64,
				Tau: math.MaxFloat64, B: []int{math.MaxInt64, math.MinInt64, 0}, Tolerance: math.MaxUint64}}},
		// Nil vs empty delta batches are distinct too (same map rule).
		{"gossipdelta_nil_counts", &Message{Kind: KindGossipDelta, Seq: 12, From: -1,
			GossipDelta: &GossipDelta{Shard: 0, Epoch: 1}}},
		{"gossipdelta_empty_counts", &Message{Kind: KindGossipDelta, Seq: 12, From: -1,
			GossipDelta: &GossipDelta{Shard: 0, Epoch: 1, Counts: map[int]int{}}}},
		{"shardrequests_terminating", &Message{Kind: KindShardRequests, Seq: 15, From: -1,
			ShardRequests: &ShardRequests{Shard: 0, Slot: 9, Terminating: true}}},
		{"snapshot_empty", &Message{Kind: KindSnapshot, Seq: 16, From: -1,
			Snapshot: &Snapshot{Shard: 2, Round: 1}}},
		{"trace_zero", &Message{Kind: KindGrant, Seq: 11, From: -1, Grant: &Grant{Slot: 3}}},
		{"trace_sampled", &Message{Kind: KindGrant, Seq: 11, From: -1,
			TraceID: ^uint64(0), SpanID: ^uint64(0), TraceFlags: 0xff, Grant: &Grant{Slot: 3}}},
	}
}

// gobRoundTrip passes m through the gob oracle. Gob normalizes empty
// slices/maps to nil on decode; the binary codec must agree exactly.
func gobRoundTrip(t testing.TB, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	c := NewCodec(&buf, &buf)
	if err := c.Encode(m); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	out, err := c.Decode()
	if err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// binaryRoundTrip passes m through the binary codec.
func binaryRoundTrip(t testing.TB, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	c := NewBinaryCodec(&buf, &buf)
	if err := c.Encode(m); err != nil {
		t.Fatalf("binary encode: %v", err)
	}
	out, err := c.Decode()
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

// TestGoldenCorpus locks the binary encoding byte-for-byte against the
// committed testdata frames: any unintended change to the wire format fails
// here before it can break cross-version interop. Regenerate deliberately
// with -update-golden (and bump BinaryVersion when the change is real).
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases() {
		path := filepath.Join("testdata", tc.name+".bin")
		frame, err := AppendFrame(nil, tc.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if *updateGolden {
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatalf("%s: write golden: %v", tc.name, err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run go test ./internal/wire -run TestGoldenCorpus -update-golden): %v", tc.name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoding changed: got %d bytes % x, want %d bytes % x",
				tc.name, len(frame), frame, len(want), want)
		}
		// The committed bytes must also decode back to the gob-normalized
		// message, so the corpus pins decode behavior too.
		c := NewBinaryCodec(bytes.NewReader(want), nil)
		got, err := c.Decode()
		if err != nil {
			t.Fatalf("%s: decode golden: %v", tc.name, err)
		}
		if wantMsg := gobRoundTrip(t, tc.msg); !reflect.DeepEqual(got, wantMsg) {
			t.Errorf("%s: golden decode mismatch:\n got %+v\nwant %+v", tc.name, got, wantMsg)
		}
	}
}

// TestCanonicalMapOrder proves the encoding is canonical: maps built in
// different insertion orders produce identical bytes (keys are sorted on
// encode), which is what makes golden frames byte-stable.
func TestCanonicalMapOrder(t *testing.T) {
	a := map[int]int{}
	b := map[int]int{}
	for i := 0; i < 50; i++ {
		a[i*7-20] = i
	}
	for i := 49; i >= 0; i-- {
		b[i*7-20] = i
	}
	ma := &Message{Kind: KindSlotInfo, SlotInfo: &SlotInfo{Slot: 1, Counts: a}}
	mb := &Message{Kind: KindSlotInfo, SlotInfo: &SlotInfo{Slot: 1, Counts: b}}
	fa, err := AppendFrame(nil, ma)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := AppendFrame(nil, mb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Error("same map content encoded to different bytes")
	}
}

// u64 draws a full-range uint64 from the stream.
func u64(s *rng.Stream) uint64 {
	return uint64(s.Intn(1<<30)) | uint64(s.Intn(1<<30))<<30 | uint64(s.Intn(16))<<60
}

// randInt draws an int, occasionally an extreme value.
func randInt(s *rng.Stream) int {
	if s.Bool(0.1) {
		return []int{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}[s.Intn(7)]
	}
	return s.IntRange(-1000, 1000)
}

// randFloat draws a finite-or-infinite float64 (never NaN: NaN breaks
// DeepEqual on both sides equally, proving nothing).
func randFloat(s *rng.Stream) float64 {
	if s.Bool(0.1) {
		return []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300}[s.Intn(6)]
	}
	return s.Norm(0, 100)
}

// randIntSlice draws a slice that is sometimes nil and sometimes empty —
// both must normalize identically through both codecs.
func randIntSlice(s *rng.Stream, maxLen int) []int {
	switch s.Intn(6) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, s.Intn(maxLen+1))
	for i := range out {
		out[i] = randInt(s)
	}
	return out
}

// randomMessage generates one valid message of a random kind with
// full-range header fields and randomized payload shapes.
func randomMessage(s *rng.Stream) *Message {
	m := &Message{
		Kind:       Kind(s.IntRange(int(KindHello), int(KindSnapshot))),
		Seq:        u64(s),
		Epoch:      uint32(u64(s)),
		From:       randInt(s),
		TraceID:    u64(s),
		SpanID:     u64(s),
		TraceFlags: uint8(s.Intn(256)),
	}
	switch m.Kind {
	case KindHello:
		m.Hello = &Hello{User: randInt(s), Resume: s.Bool(0.5)}
	case KindInit:
		in := &Init{User: randInt(s), CurrentRoute: randInt(s)}
		nr := s.Intn(5)
		for i := 0; i < nr; i++ {
			in.Routes = append(in.Routes, RouteInfo{
				Tasks:          randIntSlice(s, 6),
				DetourCost:     randFloat(s),
				CongestionCost: randFloat(s),
			})
		}
		switch s.Intn(4) {
		case 0: // nil map
		case 1:
			in.Tasks = map[int]TaskParam{}
		default:
			in.Tasks = map[int]TaskParam{}
			for i := s.Intn(8); i > 0; i-- {
				in.Tasks[randInt(s)] = TaskParam{A: randFloat(s), Mu: randFloat(s)}
			}
		}
		m.Init = in
	case KindSlotInfo:
		si := &SlotInfo{Slot: randInt(s)}
		switch s.Intn(4) {
		case 0: // nil map
		case 1:
			si.Counts = map[int]int{}
		default:
			si.Counts = map[int]int{}
			for i := s.Intn(10); i > 0; i-- {
				si.Counts[randInt(s)] = randInt(s)
			}
		}
		m.SlotInfo = si
	case KindRequest:
		m.Request = &Request{
			Slot:      randInt(s),
			HasUpdate: s.Bool(0.5),
			Route:     randInt(s),
			Tau:       randFloat(s),
			B:         randIntSlice(s, 8),
		}
	case KindGrant:
		m.Grant = &Grant{Slot: randInt(s)}
	case KindDecision:
		m.Decision = &Decision{Slot: randInt(s), Route: randInt(s)}
	case KindTerminate:
		m.Terminate = &Terminate{Slot: randInt(s)}
	case KindGossipDelta:
		g := &GossipDelta{Shard: s.Intn(16), Epoch: s.Intn(1 << 20)}
		switch s.Intn(4) {
		case 0: // nil map
		case 1:
			g.Counts = map[int]int{}
		default:
			g.Counts = map[int]int{}
			for i := s.Intn(10); i > 0; i-- {
				g.Counts[randInt(s)] = randInt(s)
			}
		}
		m.GossipDelta = g
	case KindShardRequests:
		sr := &ShardRequests{Shard: s.Intn(16), Slot: randInt(s), Terminating: s.Bool(0.2)}
		nr := s.Intn(6)
		for i := 0; i < nr; i++ {
			sr.Reqs = append(sr.Reqs, ShardRequest{
				User:  randInt(s),
				Route: randInt(s),
				Tau:   randFloat(s),
				B:     randIntSlice(s, 6),
			})
		}
		m.ShardRequests = sr
	case KindSnapshot:
		sn := &Snapshot{
			Shard:  s.Intn(16),
			Round:  randInt(s),
			Epochs: randIntSlice(s, 8),
			Counts: randIntSlice(s, 12),
		}
		// Contribution rows exercise nil, empty, and populated inner
		// slices — gob normalizes empty rows to nil and the binary codec
		// must agree.
		nc := s.Intn(5)
		for i := 0; i < nc; i++ {
			sn.Contrib = append(sn.Contrib, randIntSlice(s, 8))
		}
		m.Snapshot = sn
	}
	return m
}

// TestDifferentialGobBinary is the property-based differential suite: ~10k
// seeded random valid messages must round-trip through the binary codec to
// exactly what the gob oracle produces (reflect.DeepEqual compares the
// Init.Tasks and SlotInfo.Counts maps order-insensitively by construction),
// and the binary encoding must be a canonical fixpoint.
func TestDifferentialGobBinary(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	s := rng.New(20260808)
	for i := 0; i < n; i++ {
		m := randomMessage(s)
		gobOut := gobRoundTrip(t, m)
		binOut := binaryRoundTrip(t, m)
		if !reflect.DeepEqual(gobOut, binOut) {
			t.Fatalf("message %d (%v): differential mismatch:\n gob %+v\n bin %+v\n in  %+v",
				i, m.Kind, gobOut, binOut, m)
		}
		// Canonical encoding: re-encoding the decoded message reproduces the
		// original bytes exactly.
		e1, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("message %d: encode: %v", i, err)
		}
		e2, err := AppendFrame(nil, binOut)
		if err != nil {
			t.Fatalf("message %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("message %d (%v): encoding not canonical", i, m.Kind)
		}
	}
}

// TestBinaryStreamedSequence mirrors the gob streaming test: many messages
// through one codec pair, in order.
func TestBinaryStreamedSequence(t *testing.T) {
	var buf bytes.Buffer
	c := NewBinaryCodec(&buf, &buf)
	for i := 0; i < 10; i++ {
		m := &Message{Kind: KindGrant, Seq: uint64(i), From: -1, Grant: &Grant{Slot: i}}
		if err := c.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := c.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if m.Grant.Slot != i || m.Seq != uint64(i) {
			t.Fatalf("message %d decoded as %+v", i, m)
		}
	}
	if _, err := c.Decode(); err == nil {
		t.Fatal("decode past end of stream succeeded")
	}
}

// TestDecodeIntoReuse checks the reuse contract: repeated decodes of the
// same kind into one message are allocation-free, and alternating kinds
// still decode correctly.
func TestDecodeIntoReuse(t *testing.T) {
	si := &Message{Kind: KindSlotInfo, Seq: 3, From: -1,
		SlotInfo: &SlotInfo{Slot: 5, Counts: map[int]int{0: 3, 4: 1, 9: 7}}}
	frame, err := AppendFrame(nil, si)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	c := NewBinaryCodec(r, nil)
	var m Message
	// Warm up the reusable storage, then demand zero allocations.
	r.Reset(frame)
	if err := c.DecodeInto(&m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if err := c.DecodeInto(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeInto allocates %.1f objects/op, want 0", allocs)
	}
	if want := gobRoundTrip(t, si); !reflect.DeepEqual(&m, want) {
		t.Errorf("reused decode mismatch:\n got %+v\nwant %+v", &m, want)
	}
	// Alternating kinds through the same message must stay correct.
	for _, msg := range corpusMessages() {
		frame, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		r.Reset(frame)
		if err := c.DecodeInto(&m); err != nil {
			t.Fatalf("%v: %v", msg.Kind, err)
		}
		if want := gobRoundTrip(t, msg); !reflect.DeepEqual(&m, want) {
			t.Errorf("%v: alternating decode mismatch:\n got %+v\nwant %+v", msg.Kind, &m, want)
		}
	}
}

// TestEncodeZeroAlloc demands the warm encode path never allocates.
func TestEncodeZeroAlloc(t *testing.T) {
	msgs := []*Message{
		{Kind: KindSlotInfo, Seq: 3, From: -1, SlotInfo: &SlotInfo{Slot: 5, Counts: map[int]int{0: 3, 4: 1}}},
		{Kind: KindRequest, Seq: 4, From: 2, Request: &Request{Slot: 5, HasUpdate: true, Route: 1, Tau: 0.25, B: []int{0, 4}}},
		{Kind: KindGrant, Seq: 5, From: -1, Grant: &Grant{Slot: 5}},
	}
	for _, m := range msgs {
		var sink bytes.Buffer
		sink.Grow(1 << 16)
		c := NewBinaryCodec(nil, &sink)
		if err := c.Encode(m); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sink.Reset()
			if err := c.Encode(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: warm Encode allocates %.1f objects/op, want 0", m.Kind, allocs)
		}
	}
}

// encodeAllBinary concatenates the binary frames of msgs.
func encodeAllBinary(t testing.TB, msgs []*Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range msgs {
		var err error
		out, err = AppendFrame(out, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBinaryDecodeTruncated cuts a valid stream at every byte boundary:
// each prefix must yield clean errors (or valid prefix messages), never a
// panic, mirroring the gob oracle's hardening test.
func TestBinaryDecodeTruncated(t *testing.T) {
	full := encodeAllBinary(t, corpusMessages())
	for cut := 0; cut < len(full); cut++ {
		c := NewBinaryCodec(bytes.NewReader(full[:cut]), nil)
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

// TestBinaryDecodeCorrupted flips each byte of a valid stream in turn;
// Decode must either error out or keep producing valid messages.
func TestBinaryDecodeCorrupted(t *testing.T) {
	full := encodeAllBinary(t, corpusMessages())
	for i := range full {
		data := append([]byte(nil), full...)
		data[i] ^= 0x5a
		c := NewBinaryCodec(bytes.NewReader(data), nil)
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

// TestBinaryDecodeAdversarial hand-crafts hostile inputs: oversized length
// prefixes, huge collection lengths, bad magic/version/kind, and trailing
// garbage must all surface as errors without large allocations or panics.
func TestBinaryDecodeAdversarial(t *testing.T) {
	valid, err := AppendFrame(nil, &Message{Kind: KindGrant, From: -1, Grant: &Grant{Slot: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":     {},
		"short-len": {0xff, 0x00},
		"zero-len":  {0, 0, 0, 0},
		"huge-len":  {0xff, 0xff, 0xff, 0xff},
		"over-max":  {0x01, 0x00, 0x10, 0x00}, // MaxFrameLen+1
		"bad-magic": mutate(func(b []byte) []byte { b[4] = 'X'; return b }),
		"bad-ver":   mutate(func(b []byte) []byte { b[6] = 99; return b }),
		"bad-kind":  mutate(func(b []byte) []byte { b[7] = 200; return b }),
		"kind-zero": mutate(func(b []byte) []byte { b[7] = 0; return b }),
		"trailing":  mutate(func(b []byte) []byte { b[0] += 2; return append(b, 0xaa, 0xbb) }),
		"body-cut":  mutate(func(b []byte) []byte { b[0]--; return b[:len(b)-1] }),
		// Valid header, slot 0, then a ~4-billion-entry count claim: the
		// length check must reject it before allocating anything.
		"huge-count": append([]byte{47, 0, 0, 0, 'v', 'c', BinaryVersion, byte(KindSlotInfo)}, append(make([]byte, 37), 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f)...),
	}
	for name, data := range cases {
		c := NewBinaryCodec(bytes.NewReader(data), nil)
		if m, err := c.Decode(); err == nil {
			t.Errorf("%s: hostile input decoded as %+v", name, m)
		}
	}
}

// TestBinaryDecodeRefusesPreviousVersion checks that a frame of the
// previous wire version (v3, whose Request had no tolerance) is refused
// with the version error, not misread: a Request frame with its version
// byte set back by one must fail to decode, naming both versions.
func TestBinaryDecodeRefusesPreviousVersion(t *testing.T) {
	frame, err := AppendFrame(nil, &Message{Kind: KindRequest, Seq: 4, From: 2,
		Request: &Request{Slot: 5, HasUpdate: true, Route: 1, Tau: 0.25, B: []int{0, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	frame[6] = BinaryVersion - 1
	m, err := NewBinaryCodec(bytes.NewReader(frame), nil).Decode()
	if err == nil {
		t.Fatalf("v%d frame decoded as %+v", BinaryVersion-1, m)
	}
	want := fmt.Sprintf("unsupported frame version %d (want %d)", BinaryVersion-1, BinaryVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d frame: error %q, want it to contain %q", BinaryVersion-1, err, want)
	}
}

// mapMessage builds an Init, SlotInfo or GossipDelta whose map holds keys
// with values drawn from s; a nil keys slice makes a nil map.
func mapMessage(s *rng.Stream, kind Kind, keys []int) *Message {
	m := &Message{Kind: kind, Seq: u64(s), From: -1}
	switch kind {
	case KindInit:
		var tasks map[int]TaskParam
		if keys != nil {
			tasks = make(map[int]TaskParam, len(keys))
			for _, k := range keys {
				tasks[k] = TaskParam{A: randFloat(s), Mu: randFloat(s)}
			}
		}
		m.Init = &Init{User: 3, Tasks: tasks, CurrentRoute: -1}
	case KindSlotInfo, KindGossipDelta:
		var counts map[int]int
		if keys != nil {
			counts = make(map[int]int, len(keys))
			for _, k := range keys {
				counts[k] = randInt(s)
			}
		}
		if kind == KindSlotInfo {
			m.SlotInfo = &SlotInfo{Slot: randInt(s), Counts: counts}
		} else {
			m.GossipDelta = &GossipDelta{Shard: 1, Epoch: randInt(s), Counts: counts}
		}
	}
	return m
}

// TestCachedMapOrderMatchesFreshCodec proves the encoder's cached key order
// changes no byte: one long-lived codec encodes a random interleaving of the
// three map-carrying kinds whose key sets repeat, swap one key at the same
// length, grow, shrink, turn nil or empty, or start afresh, and every frame
// must equal a fresh codec's frame of the same message.
func TestCachedMapOrderMatchesFreshCodec(t *testing.T) {
	s := rng.New(20261017)
	var sink bytes.Buffer
	c := NewBinaryCodec(nil, &sink)
	kinds := []Kind{KindInit, KindSlotInfo, KindGossipDelta}
	keys := []int{4, 0, 9}
	// freshKey draws a key not already in keys.
	freshKey := func() int {
		for {
			k := randInt(s)
			if !slices.Contains(keys, k) {
				return k
			}
		}
	}
	for i := 0; i < 20_000; i++ {
		switch op := s.Intn(10); {
		case op < 4: // the same key set again: the cache-hit path
		case op == 4 && len(keys) > 0: // same length, one key swapped
			keys[s.Intn(len(keys))] = freshKey()
		case op == 5:
			keys = append(keys, freshKey())
		case op == 6 && len(keys) > 0:
			j := s.Intn(len(keys))
			keys = append(keys[:j], keys[j+1:]...)
		case op == 7:
			keys = nil
		case op == 8:
			keys = []int{}
		default:
			keys = keys[:0:0]
			for n := s.Intn(12); n > 0; n-- {
				keys = append(keys, freshKey())
			}
		}
		m := mapMessage(s, kinds[s.Intn(len(kinds))], keys)
		sink.Reset()
		if err := c.Encode(m); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := NewBinaryCodec(nil, &want).Encode(m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), want.Bytes()) {
			t.Fatalf("message %d (%v, keys %v): cached-order frame % x, fresh frame % x",
				i, m.Kind, keys, sink.Bytes(), want.Bytes())
		}
	}
}

// chunkReader caps its ith Read at sizes[i mod len(sizes)]+1 bytes; with no
// sizes it passes reads through uncapped.
type chunkReader struct {
	r     io.Reader
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.sizes) > 0 {
		if n := int(c.sizes[c.i%len(c.sizes)]) + 1; len(p) > n {
			p = p[:n]
		}
		c.i++
	}
	return c.r.Read(p)
}

// countingReader counts the Read calls that reach its reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// decodeStream decodes r until the codec reports an error, which it
// returns with the messages decoded before it.
func decodeStream(r io.Reader) ([]*Message, error) {
	c := NewBinaryCodec(r, nil)
	var out []*Message
	for {
		m, err := c.Decode()
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

// TestReadAheadChunking feeds one stream through readers that split it at
// every kind of boundary: one byte per read, half of each request, random
// chunks, everything the buffer asks for, and the last bytes arriving with
// io.EOF. Each must decode to the frames' own messages, then io.EOF.
func TestReadAheadChunking(t *testing.T) {
	s := rng.New(7)
	msgs := corpusMessages()
	for i := 0; i < 300; i++ {
		msgs = append(msgs, randomMessage(s))
	}
	// One Init far above the buffer floor makes the buffer grow mid-stream.
	big := mapMessage(s, KindInit, nil)
	big.Init.Routes = []RouteInfo{{Tasks: make([]int, 4000)}}
	msgs = slices.Insert(msgs, 40, big)
	var stream []byte
	var want []*Message
	for _, m := range msgs {
		start := len(stream)
		var err error
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
		dm, err := DecodeRawFrame(stream[start:])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dm)
	}
	random := make([]byte, 97)
	for i := range random {
		random[i] = byte(s.Intn(300))
	}
	readers := map[string]func() io.Reader{
		"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"random":   func() io.Reader { return &chunkReader{r: bytes.NewReader(stream), sizes: random} },
		"whole":    func() io.Reader { return bytes.NewReader(stream) },
		"data-err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	}
	for name, mk := range readers {
		got, err := decodeStream(mk())
		if err != io.EOF {
			t.Errorf("%s: stream ended with %v, want io.EOF", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %d messages that differ from the %d encoded", name, len(got), len(want))
		}
	}
}

// TestReadFrameEOF pins the EOF taxonomy for every cut of a two-frame
// stream, whole and one byte per read: io.EOF itself at a frame boundary,
// an unexpected-EOF error naming the length or the body inside a frame.
func TestReadFrameEOF(t *testing.T) {
	stream := encodeAllBinary(t, corpusMessages()[2:4])
	first := int(binary.LittleEndian.Uint32(stream)) + 4
	for cut := 0; cut <= len(stream); cut++ {
		at := cut // offset of the cut in the frame it falls in
		if cut > first {
			at -= first
		}
		wantErr := "wire: decode: reading frame body: unexpected EOF"
		switch {
		case cut == 0 || cut == first || cut == len(stream):
			wantErr = "EOF"
		case at < 4:
			wantErr = "wire: decode: reading frame length: unexpected EOF"
		}
		for _, r := range []io.Reader{bytes.NewReader(stream[:cut]), iotest.OneByteReader(bytes.NewReader(stream[:cut]))} {
			_, err := decodeStream(r)
			if err.Error() != wantErr {
				t.Fatalf("cut %d: got %q, want %q", cut, err, wantErr)
			}
			if wantErr == "EOF" && err != io.EOF {
				t.Fatalf("cut %d: boundary EOF is %#v, want io.EOF itself", cut, err)
			}
			if wantErr != "EOF" && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: %v does not wrap io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
}

// TestReadFrameOversizeKeepsBuffer checks that a length prefix above
// MaxFrameLen is refused before the read-ahead buffer grows to it, on a
// fresh codec and on one that has decoded a frame.
func TestReadFrameOversizeKeepsBuffer(t *testing.T) {
	grant, err := AppendFrame(nil, corpusMessages()[4])
	if err != nil {
		t.Fatal(err)
	}
	hostile := []byte{0x01, 0x00, 0x10, 0x00, 'v', 'c'} // MaxFrameLen+1
	for _, data := range [][]byte{hostile, append(grant, hostile...)} {
		c := NewBinaryCodec(bytes.NewReader(data), nil)
		for {
			if _, err = c.Decode(); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("got %v, want ErrFrameTooLarge", err)
		}
		if len(c.rbuf) > minReadBuf {
			t.Errorf("buffer grew to %d bytes on a refused frame", len(c.rbuf))
		}
	}
}

// TestReadAheadOneReadPerFrame counts the reads a codec makes for frames
// arriving one write at a time over net.Pipe: one per frame, where reading
// the length prefix and the body apart would take two.
func TestReadAheadOneReadPerFrame(t *testing.T) {
	const n = 200
	a, b := net.Pipe()
	done := make(chan struct{})
	defer func() {
		b.Close()
		<-done
	}()
	msgs := corpusMessages()
	go func() {
		defer close(done)
		defer a.Close()
		w := NewBinaryCodec(nil, a)
		for i := 0; i < n; i++ {
			if err := w.Encode(msgs[i%len(msgs)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cr := &countingReader{r: b}
	c := NewBinaryCodec(cr, nil)
	var m Message
	for i := 0; i < n; i++ {
		if err := c.DecodeInto(&m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if cr.reads != n {
		t.Errorf("%d frames took %d reads, want %d", n, cr.reads, n)
	}
}
