package distributed

import "repro/internal/core"

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
