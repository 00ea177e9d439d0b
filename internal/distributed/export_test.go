package distributed

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// WithSilenceHook returns cfg with a hook that receives every decision
// slot's silent users (global IDs) before its SlotInfos go out.
func WithSilenceHook(cfg PlatformConfig, fn func(slot int, silent []int)) PlatformConfig {
	cfg.onSilence = fn
	return cfg
}

// PlatformDrift returns the drift tracker of a fresh platform that serves
// the given users of in.
func PlatformDrift(in *core.Instance, users []int) (*core.DriftTracker, error) {
	p, err := newPlatform(in, make([]Conn, len(users)), PlatformConfig{Telemetry: telemetry.NewRegistry()}, users, nil)
	if err != nil {
		return nil, err
	}
	return p.drift, nil
}

// TaskUnions exposes taskUnions to the external tests.
func TaskUnions(in *core.Instance, users []int) [][]int32 { return taskUnions(in, users) }

// AgentTaskIDs returns the task order an agent for user u builds from the
// Init the platform sends it.
func AgentTaskIDs(in *core.Instance, u int) ([]int, error) {
	p := &Platform{in: in, users: []int{u}, unions: taskUnions(in, []int{u})}
	a := NewAgent(&sinkConn{}, AgentConfig{User: u})
	if err := a.buildView(p.initMsg(0, -1).Init); err != nil {
		return nil, err
	}
	return a.taskIDs, nil
}

// AgentProbe hands a fresh agent for user u of in the Init the platform
// sends a user resuming on route cur, then the SlotInfo it sends at the
// per-task counts, and returns the agent's ΔP_i per route, its Δ_i, and
// the Request it answered with.
func AgentProbe(in *core.Instance, u, cur int, counts []int, seed uint64) (dp []float64, delta []int, req *wire.Request, err error) {
	p := &Platform{in: in, users: []int{u}, unions: taskUnions(in, []int{u})}
	usr := in.Users[u]
	conn := &sinkConn{}
	a := NewAgent(conn, AgentConfig{User: u, Alpha: usr.Alpha, Beta: usr.Beta, Gamma: usr.Gamma, Seed: seed})
	if err := a.handleInit(p.initMsg(0, cur).Init); err != nil {
		return nil, nil, nil, err
	}
	if err := a.handleSlot(slotInfoMsg(1, p.unions[0], counts).SlotInfo); err != nil {
		return nil, nil, nil, err
	}
	return a.dp, a.delta, conn.last.Request, nil
}
