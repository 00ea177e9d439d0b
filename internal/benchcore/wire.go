package benchcore

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// This file is the wire-codec counterpart of the other suites: it measures
// the hand-rolled binary codec against the gob oracle per message kind,
// plus streamed decoding over a pipe and the multiplexer's frame path, and
// serializes BENCH_wire.json. The contract is the PR's transport gate —
// the binary codec must beat gob by the configured factor on the protocol
// hot path (SlotInfo out, Request in, every user, every slot) and the
// steady-state encode/decode of the per-slot kinds must be allocation-free.

// benchMessage builds a realistic instance of each benchmarked kind: the
// payload sizes mirror an 8-route, 12-task scenario, which is what the
// protocol actually ships every slot.
func benchMessage(k wire.Kind) *wire.Message {
	m := &wire.Message{Kind: k, Seq: 12345, Epoch: 1, From: 3, TraceID: 0xabcdef01, SpanID: 0x1234, TraceFlags: 1}
	switch k {
	case wire.KindInit:
		routes := make([]wire.RouteInfo, 8)
		for i := range routes {
			routes[i] = wire.RouteInfo{
				Tasks:          []int{i, i + 1, i + 2},
				DetourCost:     0.25 * float64(i),
				CongestionCost: 0.5 + float64(i),
			}
		}
		tasks := make(map[int]wire.TaskParam, 12)
		for i := 0; i < 12; i++ {
			tasks[i] = wire.TaskParam{A: 10 + float64(i), Mu: 0.3}
		}
		m.Init = &wire.Init{User: 3, Routes: routes, Tasks: tasks, CurrentRoute: 2}
	case wire.KindSlotInfo:
		counts := make(map[int]int, 12)
		for i := 0; i < 12; i++ {
			counts[i] = i % 4
		}
		m.SlotInfo = &wire.SlotInfo{Slot: 17, Counts: counts}
	case wire.KindRequest:
		m.Request = &wire.Request{Slot: 17, HasUpdate: true, Route: 5, Tau: 1.625, B: []int{1, 3, 4, 7, 9, 11}}
	case wire.KindGrant:
		m.Grant = &wire.Grant{Slot: 17}
	default:
		panic("benchcore: unhandled bench kind " + k.String())
	}
	return m
}

// wireKinds are the benchmarked message kinds: the three per-slot messages
// (the steady-state traffic) plus Init (the one large setup message).
var wireKinds = []wire.Kind{wire.KindSlotInfo, wire.KindRequest, wire.KindGrant, wire.KindInit}

// BinaryEncode measures the binary codec's encode path into a discarded
// stream; steady state must be allocation-free for the per-slot kinds.
func BinaryEncode(k wire.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		m := benchMessage(k)
		c := wire.NewBinaryCodec(bytes.NewReader(nil), io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// GobEncode measures the gob oracle's encode path under the same
// conditions: one long-lived encoder, type descriptors amortized away.
func GobEncode(k wire.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		m := benchMessage(k)
		c := wire.NewCodec(bytes.NewReader(nil), io.Discard)
		if err := c.Encode(m); err != nil { // ship type descriptors outside the timer
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BinaryDecode measures the binary codec's decode path: one pre-encoded
// frame, reader reset per iteration, DecodeInto reusing the payload.
func BinaryDecode(k wire.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		frame, err := wire.AppendFrame(nil, benchMessage(k))
		if err != nil {
			b.Fatal(err)
		}
		br := bytes.NewReader(frame)
		c := wire.NewBinaryCodec(br, io.Discard)
		var m wire.Message
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Reset(frame)
			if err := c.DecodeInto(&m); err != nil {
				b.Fatal(err)
			}
		}
	}
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

// StreamedDecode measures the binary decode path as a live agent link runs
// it: SlotInfo frames arrive one write at a time over net.Pipe and one
// codec decodes them in turn. Besides ns/msg it reports reads/msg, the Read
// calls that reached the pipe per decoded frame.
func StreamedDecode() func(b *testing.B) {
	return func(b *testing.B) {
		frame, err := wire.AppendFrame(nil, benchMessage(wire.KindSlotInfo))
		if err != nil {
			b.Fatal(err)
		}
		w, r := net.Pipe()
		defer r.Close()
		done := make(chan error, 1)
		go func() {
			defer w.Close()
			for i := 0; i < b.N; i++ {
				if _, err := w.Write(frame); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		cr := &countingReader{r: r}
		c := wire.NewBinaryCodec(cr, io.Discard)
		var m wire.Message
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.DecodeInto(&m); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cr.reads)/float64(b.N), "reads/msg")
	}
}

// gobChunk is how many copies of a message a pre-encoded gob stream holds;
// the decoder is rebuilt when the stream is exhausted, so the per-stream
// type-descriptor cost is amortized 1/gobChunk into the measurement —
// matching what a long-lived connection sees.
const gobChunk = 1024

// GobDecode measures the gob oracle's decode path over pre-encoded
// streams of gobChunk messages each.
func GobDecode(k wire.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		m := benchMessage(k)
		var buf bytes.Buffer
		enc := wire.NewCodec(bytes.NewReader(nil), &buf)
		for i := 0; i < gobChunk; i++ {
			if err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
		stream := buf.Bytes()
		br := bytes.NewReader(stream)
		dec := wire.NewCodec(br, io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%gobChunk == 0 {
				br.Reset(stream)
				dec = wire.NewCodec(br, io.Discard)
			}
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MuxThroughput measures one logical channel's send→deliver path through
// the full multiplexer (frame encode, channel header, writer loop, demux
// read) over an in-process pipe with a draining peer.
func MuxThroughput() func(b *testing.B) {
	return func(b *testing.B) {
		p, a := net.Pipe()
		sm := wire.NewMux(p, wire.MuxOptions{})
		rm := wire.NewMux(a, wire.MuxOptions{})
		defer sm.Close()
		defer rm.Close()
		sc, err := sm.Channel(1)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := rm.Channel(1)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			for {
				if _, err := rc.Recv(); err != nil {
					done <- err
					return
				}
			}
		}()
		m := benchMessage(wire.KindSlotInfo)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sc.Send(m); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		sm.Drain()
		sm.Close()
		rm.Close()
		<-done
	}
}

// --- Machine-readable report (BENCH_wire.json) ---

// WireEntry is one recorded wire benchmark measurement.
type WireEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"`
	ReadsPerMsg float64 `json:"reads_per_msg,omitempty"`
}

// WireSpeedup records binary-vs-gob on one kind and operation.
type WireSpeedup struct {
	Op       string  `json:"op"` // "Encode" or "Decode"
	Kind     string  `json:"kind"`
	Speedup  float64 `json:"speedup"`
	GobNs    float64 `json:"gob_ns_per_op"`
	BinaryNs float64 `json:"binary_ns_per_op"`
}

// WireReport is the BENCH_wire.json document.
type WireReport struct {
	Schema        string        `json:"schema"`
	GeneratedUnix int64         `json:"generated_unix"`
	GoVersion     string        `json:"go_version"`
	GOOS          string        `json:"goos"`
	GOARCH        string        `json:"goarch"`
	NumCPU        int           `json:"num_cpu"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	BenchTime     string        `json:"bench_time"`
	Entries       []WireEntry   `json:"benchmarks"`
	Speedups      []WireSpeedup `json:"speedups"`
}

// RunWireSuite executes the wire suite under testing.Benchmark. Callers
// must have invoked testing.Init beforehand.
func RunWireSuite(benchTime string) WireReport {
	rep := WireReport{
		Schema:        "repro/bench-wire/v1",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		BenchTime:     benchTime,
	}
	record := func(name string, body func(*testing.B), msgs bool) WireEntry {
		r := testing.Benchmark(body)
		e := WireEntry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			ReadsPerMsg: r.Extra["reads/msg"],
		}
		if msgs && e.NsPerOp > 0 {
			e.MsgsPerSec = 1e9 / e.NsPerOp
		}
		rep.Entries = append(rep.Entries, e)
		return e
	}
	for _, k := range wireKinds {
		bin := record(fmt.Sprintf("Encode/binary/%v", k), BinaryEncode(k), true)
		gob := record(fmt.Sprintf("Encode/gob/%v", k), GobEncode(k), true)
		if bin.NsPerOp > 0 {
			rep.Speedups = append(rep.Speedups, WireSpeedup{
				Op: "Encode", Kind: k.String(),
				Speedup: gob.NsPerOp / bin.NsPerOp, GobNs: gob.NsPerOp, BinaryNs: bin.NsPerOp,
			})
		}
	}
	for _, k := range wireKinds {
		bin := record(fmt.Sprintf("Decode/binary/%v", k), BinaryDecode(k), true)
		gob := record(fmt.Sprintf("Decode/gob/%v", k), GobDecode(k), true)
		if bin.NsPerOp > 0 {
			rep.Speedups = append(rep.Speedups, WireSpeedup{
				Op: "Decode", Kind: k.String(),
				Speedup: gob.NsPerOp / bin.NsPerOp, GobNs: gob.NsPerOp, BinaryNs: bin.NsPerOp,
			})
		}
	}
	record("Decode/streamed/slotinfo", StreamedDecode(), true)
	record("Mux/send", MuxThroughput(), true)
	return rep
}

// WireEntryFor returns the named entry, or nil when it was not measured.
func (r *WireReport) WireEntryFor(name string) *WireEntry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// WireSpeedupFor returns the recorded binary-vs-gob factor, 0 when absent.
func (r *WireReport) WireSpeedupFor(op, kind string) float64 {
	for _, s := range r.Speedups {
		if s.Op == op && s.Kind == kind {
			return s.Speedup
		}
	}
	return 0
}

// WireZeroAllocNames are the entries the CI gate requires to be
// allocation-free: steady-state encode and decode of every per-slot
// message kind on the binary codec.
var WireZeroAllocNames = []string{
	"Encode/binary/slotinfo",
	"Encode/binary/request",
	"Encode/binary/grant",
	"Decode/binary/slotinfo",
	"Decode/binary/request",
	"Decode/binary/grant",
}

// CheckWireAllocs returns an error naming the first gated entry that
// allocated.
func (r *WireReport) CheckWireAllocs() error {
	for _, name := range WireZeroAllocNames {
		e := r.WireEntryFor(name)
		if e == nil {
			return fmt.Errorf("missing gated entry %s", name)
		}
		if e.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %d objects/op (%d bytes), want 0", name, e.AllocsPerOp, e.BytesPerOp)
		}
	}
	return nil
}

// CheckWireSpeedups returns an error naming the first hot-path kind whose
// binary-vs-gob factor falls below min. SlotInfo and Request are the gated
// kinds: they are the per-user, per-slot request/response traffic.
func (r *WireReport) CheckWireSpeedups(min float64) error {
	for _, op := range []string{"Encode", "Decode"} {
		for _, kind := range []string{"slotinfo", "request"} {
			got := r.WireSpeedupFor(op, kind)
			if got == 0 {
				return fmt.Errorf("missing gated speedup %s/%s", op, kind)
			}
			if got < min {
				return fmt.Errorf("%s/%s speedup is %.1fx, below the %.1fx floor", op, kind, got, min)
			}
		}
	}
	return nil
}
