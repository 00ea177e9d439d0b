package distributed

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file wires the transport and the slot protocol into the telemetry
// registry: per-link send/recv counters, retry and fault counters, and the
// platform's slot-protocol histograms. The handles below live on the
// default registry because the conn decorators (retry, fault injection)
// are constructed in places that have no registry in scope; the platform's
// own metrics honor PlatformConfig.Telemetry.

var (
	// retryAttemptsTotal counts transient Send/Recv failures the retry
	// layer absorbed (each increment is one failed attempt that was
	// retried or exhausted the budget).
	retryAttemptsTotal = telemetry.Default().Counter("distributed_retry_attempts_total")
	// retryGiveupsTotal counts operations that exhausted their retry
	// budget and surfaced a permanent error.
	retryGiveupsTotal = telemetry.Default().Counter("distributed_retry_giveups_total")
	// faultsTotal mirrors the FaultLog: one labeled counter per injected
	// fault kind, so chaos runs are visible in the registry snapshot.
	faultsTotal = func() [numFaultKinds]*telemetry.Counter {
		var cs [numFaultKinds]*telemetry.Counter
		for k := range cs {
			cs[k] = telemetry.Default().Counter(
				fmt.Sprintf("distributed_faults_total{kind=%q}", FaultKind(k).String()))
		}
		return cs
	}()
)

// platformTelemetry holds the pre-resolved metric handles for one
// platform run; all hot-path operations on them are atomic and
// allocation-free.
type platformTelemetry struct {
	slotDuration  *telemetry.Histogram // wall time of a full decision slot
	slotRoundtrip *telemetry.Histogram // broadcast -> all requests collected
	selectionTime *telemetry.Histogram // winner selection (SUU/PUU/DET)
	slots         *telemetry.Counter
	requests      *telemetry.Counter
	grants        *telemetry.Counter
	reconnects    *telemetry.Counter // Hello{Resume} resyncs mid-protocol
	regrants      *telemetry.Counter // Grants re-sent to restarted winners
	sentAll       *telemetry.Counter
	recvAll       *telemetry.Counter
	linkSent      []*telemetry.Counter
	linkRecv      []*telemetry.Counter
	// runSent and runRecv count this platform's messages alone, whatever
	// registry it shares: the run's RunStats.MessagesSent and
	// MessagesReceived.
	runSent, runRecv telemetry.Counter
}

// newPlatformTelemetry resolves the metric handles for a platform serving
// the given global user IDs. A federated shard (shard >= 0) gets a
// {shard="k"} label on every aggregate metric so per-shard load is
// separable in one registry; per-link counters always carry the global
// user ID.
func newPlatformTelemetry(reg *telemetry.Registry, users []int, shard int) *platformTelemetry {
	suffix := ""
	linkFmt := `{user="%d"}`
	if shard >= 0 {
		suffix = fmt.Sprintf(`{shard="%d"}`, shard)
		linkFmt = fmt.Sprintf(`{shard="%d",user="%%d"}`, shard)
	}
	t := &platformTelemetry{
		slotDuration:  reg.Histogram("distributed_slot_duration_seconds"+suffix, nil),
		slotRoundtrip: reg.Histogram("distributed_slot_roundtrip_seconds"+suffix, nil),
		selectionTime: reg.Histogram("distributed_selection_seconds"+suffix, nil),
		slots:         reg.Counter("distributed_slots_total" + suffix),
		requests:      reg.Counter("distributed_requests_total" + suffix),
		grants:        reg.Counter("distributed_grants_total" + suffix),
		reconnects:    reg.Counter("distributed_reconnects_total" + suffix),
		regrants:      reg.Counter("distributed_regrants_total" + suffix),
		sentAll:       reg.Counter("distributed_sent_total" + suffix),
		recvAll:       reg.Counter("distributed_recv_total" + suffix),
		linkSent:      make([]*telemetry.Counter, len(users)),
		linkRecv:      make([]*telemetry.Counter, len(users)),
	}
	for li, u := range users {
		t.linkSent[li] = reg.Counter(fmt.Sprintf("distributed_link_sent_total"+linkFmt, u))
		t.linkRecv[li] = reg.Counter(fmt.Sprintf("distributed_link_recv_total"+linkFmt, u))
	}
	return t
}

// wrap decorates the platform-side end of user u's link so every message
// bumps the per-link, aggregate and per-run counters.
func (t *platformTelemetry) wrap(inner Conn, u int) Conn {
	return &telemetryConn{
		inner: inner,
		sent:  t.linkSent[u], recv: t.linkRecv[u],
		sentAll: t.sentAll, recvAll: t.recvAll,
		runSent: &t.runSent, runRecv: &t.runRecv,
	}
}

// telemetryConn is the counting decorator installed by wrap. Counters are
// bumped only on success, so they measure delivered traffic, not attempts
// (attempts live in the retry/fault counters).
type telemetryConn struct {
	inner            Conn
	sent, recv       *telemetry.Counter
	sentAll, recvAll *telemetry.Counter
	runSent, runRecv *telemetry.Counter
}

func (c *telemetryConn) Send(m *wire.Message) error {
	if err := c.inner.Send(m); err != nil {
		return err
	}
	c.sent.Inc()
	c.sentAll.Inc()
	c.runSent.Inc()
	return nil
}

func (c *telemetryConn) Recv() (*wire.Message, error) {
	m, err := c.inner.Recv()
	if err != nil {
		return nil, err
	}
	c.recv.Inc()
	c.recvAll.Inc()
	c.runRecv.Inc()
	return m, nil
}

func (c *telemetryConn) Close() error { return c.inner.Close() }
