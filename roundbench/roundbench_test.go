package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// 100 samples: the p90 is the 90th value and 10 lie beyond it.
	if v, ok := tailQuantile(xs(100), 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// 99 samples leave only 9 beyond the p90: report the median instead.
	if v, ok := tailQuantile(xs(99), 0.9); ok || v != 50 {
		t.Fatalf("p90 of 1..99 = %v, %v; want median 50, false", v, ok)
	}
	if v, ok := tailQuantile(xs(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestMedianAveragesMiddlePair(t *testing.T) {
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("median(4,1,3) = %v, want 3", m)
	}
	if m := median([]float64{10, 2}); m != 6 {
		t.Errorf("median(10,2) = %v, want 6", m)
	}
}

func TestParseProcStat(t *testing.T) {
	const sample = "cpu  100 5 50 800 20 3 2 20 7 0\ncpu0 50 2 25 400 10 1 1 10 3 0\nintr 1 2 3\n"
	ct, err := parseProcStat(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{total: 1000, iowait: 20, steal: 20}); ct != want {
		t.Fatalf("parsed %+v, want %+v", ct, want)
	}
	later := cpuTimes{total: 1200, iowait: 30, steal: 70}
	steal, iowait := ct.shares(later)
	if steal != 25 || iowait != 5 {
		t.Fatalf("shares = %v%% steal, %v%% iowait; want 25, 5", steal, iowait)
	}
	for _, bad := range []string{"intr 1\n", "cpu 1 2 3\n", "cpu 1 2 3 x 5 6 7 8\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded, want an error", bad)
		}
	}
}

func TestPipeListenerAcceptAndClose(t *testing.T) {
	l := newPipeListener()
	dialed := make(chan net.Conn)
	go func() {
		c, err := l.Dial()
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	client := <-dialed
	go func() { client.Write([]byte("hello")) }()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v", buf, err)
	}
	client.Close()
	server.Close()

	// A Dial pending at Close fails, and Accept after Close fails even
	// when a dialer is waiting.
	pending := make(chan error)
	go func() {
		_, err := l.Dial()
		pending <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	if err := <-pending; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("pending Dial after Close: %v, want net.ErrClosed", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v, want net.ErrClosed", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after Close: %v, want net.ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFrameTrackerFollowsSplits(t *testing.T) {
	var buf bytes.Buffer
	codec := wire.NewBinaryCodec(nil, &buf)
	msgs := []*wire.Message{
		{Kind: wire.KindSlotInfo, SlotInfo: &wire.SlotInfo{Slot: 3, Counts: map[int]int{1: 2, 7: 0}}},
		{Kind: wire.KindRequest, Request: &wire.Request{Slot: 3, HasUpdate: true, Route: 1, Tau: 0.5, B: []int{1, 7}}},
		{Kind: wire.KindGossipDelta, Epoch: 42, GossipDelta: &wire.GossipDelta{Shard: 1, Epoch: 9}},
		{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: 3}},
	}
	for _, m := range msgs {
		if err := codec.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var f frameTracker
		var total int64
		var kinds []wire.Kind
		var epochs []uint32
		for rest := stream; len(rest) > 0; {
			n := 1 + rnd.Intn(min(len(rest), 64))
			f.feed(rest[:n], 0, 0, func(k wire.Kind, e uint32, size, _, _ int64) {
				total += size
				kinds = append(kinds, k)
				epochs = append(epochs, e)
			})
			rest = rest[n:]
		}
		if len(kinds) != len(msgs) || total != int64(len(stream)) {
			t.Fatalf("trial %d: %d frames of %d bytes, want %d of %d", trial, len(kinds), total, len(msgs), len(stream))
		}
		for i, m := range msgs {
			if kinds[i] != m.Kind || epochs[i] != m.Epoch {
				t.Fatalf("trial %d frame %d: kind %v epoch %d, want %v %d", trial, i, kinds[i], epochs[i], m.Kind, m.Epoch)
			}
		}
	}
}

func TestPhasesTileRound(t *testing.T) {
	rec := &roundRec{}
	rec.setStart(100)
	// Init traffic before the round opens is not round traffic.
	rec.event(wire.KindDecision, false, 105, 105)
	rec.event(wire.KindSlotInfo, true, 110, 112)
	rec.event(wire.KindSlotInfo, true, 112, 120)
	rec.event(wire.KindRequest, false, 130, 130)
	rec.event(wire.KindRequest, false, 150, 150)
	rec.event(wire.KindGrant, true, 160, 161)
	rec.event(wire.KindDecision, false, 175, 175)
	rec.close(190)
	if len(rec.rounds) != 1 {
		t.Fatalf("%d rounds, want 1", len(rec.rounds))
	}
	rm := rec.rounds[0]
	if rm.msgs != 6 {
		t.Fatalf("%d round messages, want 6", rm.msgs)
	}
	pt := newPhaseTotals(platformPhases)
	log := &spanLog{}
	pt.addRound(log, 1, 0, rm.start, rm.end, platformMarks(rm))
	want := map[string]float64{"fanout": 10e-6, "fanin": 30e-6, "decide": 10e-6, "commit": 15e-6, "close": 15e-6}
	for name, ms := range want {
		if got := pt.meanMs(name); got != ms {
			t.Errorf("%s = %v ms, want %v", name, got, ms)
		}
	}
	// The 10 ns before the first SlotInfo is the only uncovered time.
	if got := pt.uncoveredPct(); got != 100*10.0/90 {
		t.Errorf("uncovered %v%%, want %v%%", got, 100*10.0/90)
	}
	// Spans: one round plus one per phase, contiguous inside the round.
	if len(log.spans) != 1+len(platformPhases) {
		t.Fatalf("%d spans, want %d", len(log.spans), 1+len(platformPhases))
	}
	at := int64(110)
	for _, s := range log.spans[1:] {
		if s.Parent != 0 || s.Start != at || s.End < s.Start {
			t.Fatalf("span %+v does not continue at %d under the round", s, at)
		}
		at = s.End
	}
	if at != 190 {
		t.Fatalf("phases end at %d, want the round end 190", at)
	}
}

func TestTileClampsMissingAndLateMarks(t *testing.T) {
	// A round without grants (zero marks) and a peer arrival reported
	// before the local fan-in ended: phases stay ordered and inside the
	// round, and they never cover more than the round.
	start, end := int64(0), int64(100)
	marks := []int64{10, 20, 50, 40, 0, 0, 80, 100}
	phases, covered := tile(start, end, marks)
	want := []int64{10, 30, 0, 0, 0, 30, 20}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases %v, want %v", phases, want)
		}
	}
	if covered != 90 {
		t.Fatalf("covered %d, want 90", covered)
	}
	phases, covered = tile(start, end, []int64{-5, 200})
	if phases[0] != 100 || covered != 100 {
		t.Fatalf("out-of-round marks gave %v (covered %d), want the whole round", phases, covered)
	}
}

func TestPlanIsFixedAndRepeatsAnInstance(t *testing.T) {
	// The episode count comes from --seconds alone, never below one
	// episode per instance plus a repeat.
	for _, c := range []struct {
		name    string
		seconds int
		want    int
	}{
		{"road-puu-nodes", 40, 4},
		{"road-puu-engine", 40, 8},
		{"road-puu-engine", 1, instances + 1},
	} {
		if got := episodeCount(c.name, c.seconds); got != c.want {
			t.Errorf("episodeCount(%s, %d) = %d, want %d", c.name, c.seconds, got, c.want)
		}
	}
	// Untraced: each episode follows its own instance's set-up probes, and
	// the instances cycle, so instance 0 runs twice in four episodes.
	steps := plan(4, false)
	if len(steps) != 4*(probesPerEpisode+1) {
		t.Fatalf("%d steps, want %d", len(steps), 4*(probesPerEpisode+1))
	}
	runs := map[int]int{}
	for i, st := range steps {
		if (i+1)%(probesPerEpisode+1) == 0 {
			if st.m != modePlain {
				t.Fatalf("step %d is %v, want an untraced episode", i, st.m)
			}
			runs[st.j]++
			continue
		}
		if st.m != modeProbe || st.j != steps[i-i%(probesPerEpisode+1)+probesPerEpisode].j {
			t.Fatalf("step %d = %+v, want a probe of the next episode's instance", i, st)
		}
	}
	if runs[0] != 2 || runs[1] != 1 || runs[2] != 1 {
		t.Fatalf("episodes per instance %v, want 2, 1, 1", runs)
	}
	// Traced: an untraced then a traced episode of each instance, no probes.
	steps = plan(4, true)
	if len(steps) != 2*instances {
		t.Fatalf("traced plan has %d steps, want %d", len(steps), 2*instances)
	}
	for i, st := range steps {
		if st.j != i/2 || (st.m == modeTraced) != (i%2 == 1) {
			t.Fatalf("traced step %d = %+v", i, st)
		}
	}
}
