// Package e2e is the multi-process harness for the multi-node TCP
// federation: it builds the REAL platformd and useragent binaries once per
// run, spawns one OS process per shard (plus the front door and one per
// agent), and asserts the protocol invariants — convergence, potential
// ascent, the Theorem-4 slot bound, determinism against the in-process
// federation, and crash recovery under kill -9 — against the processes'
// actual output. Short mode (make ci) runs the determinism and shutdown
// tests at K=2; the full run (make chaos / make soak-multinode) adds
// K∈{1,4} and the crash/recovery soak.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/rng"
)

// Binaries built once by TestMain.
var (
	platformdBin string
	useragentBin string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-e2e-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir, "repro/cmd/platformd", "repro/cmd/useragent")
	build.Dir = filepath.Join("..", "..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building binaries: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	platformdBin = filepath.Join(dir, "platformd")
	useragentBin = filepath.Join(dir, "useragent")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// e2eInstance is the shared scenario, written to disk for the processes
// and kept in memory for the in-process reference runs. Same shape as the
// in-process node tests: small enough for fast rounds, contended enough
// to need real slot dynamics.
func e2eInstance(t *testing.T) (*core.Instance, string) {
	t.Helper()
	in := core.RandomInstance(core.DefaultRandomConfig(10, 14), rng.New(3))
	path := filepath.Join(t.TempDir(), "instance.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return in, path
}

// freeAddrs reserves n distinct localhost addresses by binding and
// releasing ephemeral listeners.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// syncBuf is a concurrency-safe capture of one process's combined output.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one running binary under test. done is closed when the process
// exits, so any number of waiters can observe the exit.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *syncBuf
	done chan struct{}
}

func start(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, out: &syncBuf{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { p.kill() })
	return p
}

// waitOutput polls the captured output for a substring.
func (p *proc) waitOutput(t *testing.T, substr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !strings.Contains(p.out.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %q not seen within %v; output:\n%s", p.name, substr, timeout, p.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitExit waits for the process to exit and returns its exit code.
func (p *proc) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		t.Fatalf("%s: still running after %v; output:\n%s", p.name, timeout, p.out.String())
		return -1
	}
}

// exited reports whether the process has finished.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill delivers SIGKILL — the chaos harness's crash, and the cleanup path
// for processes a failed test leaves behind.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
	}
}

// cluster is a running K-shard federation of real platformd processes,
// fronted by a front-door process.
type cluster struct {
	K          int
	in         *core.Instance
	instance   string
	part       federation.Partition
	agentAddrs []string
	peerAddrs  []string
	shards     []*proc
	frontdoor  *proc
	// agentFor is the address agents dial: the front door.
	agentFor string
}

// shardArgs builds the argument vector for shard k; extra is appended.
func (c *cluster) shardArgs(k int, policy string, extra ...string) []string {
	args := []string{
		"-instance", c.instance,
		"-addr", c.agentAddrs[k],
		"-shard", fmt.Sprintf("%d/%d", k, c.K),
		"-peers", strings.Join(c.peerAddrs, ","),
		"-policy", policy,
	}
	return append(args, extra...)
}

// startCluster launches K shard processes plus the front door and waits
// until every listener is up. extra(k) supplies per-shard extra flags.
func startCluster(t *testing.T, in *core.Instance, instance string, K int, policy string, extra func(k int) []string) *cluster {
	t.Helper()
	part, err := federation.Spatial(in, K)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		K: K, in: in, instance: instance, part: part,
		agentAddrs: freeAddrs(t, K),
		peerAddrs:  freeAddrs(t, K),
		shards:     make([]*proc, K),
	}
	for k := 0; k < K; k++ {
		var ex []string
		if extra != nil {
			ex = extra(k)
		}
		c.shards[k] = start(t, fmt.Sprintf("shard%d", k), platformdBin, c.shardArgs(k, policy, ex...)...)
	}
	for _, s := range c.shards {
		s.waitOutput(t, "listening on", 30*time.Second)
	}
	fdAddr := freeAddrs(t, 1)[0]
	c.frontdoor = start(t, "frontdoor", platformdBin,
		"-instance", instance, "-addr", fdAddr, "-frontdoor", strings.Join(c.agentAddrs, ","))
	c.frontdoor.waitOutput(t, "front door listening", 30*time.Second)
	c.agentFor = fdAddr
	return c
}

// startAgents launches one useragent process per listed user, dialing the
// front door.
func (c *cluster) startAgents(t *testing.T, users []int) []*proc {
	t.Helper()
	agents := make([]*proc, 0, len(users))
	for _, u := range users {
		agents = append(agents, start(t, fmt.Sprintf("agent%d", u), useragentBin,
			"-addr", c.agentFor, "-user", fmt.Sprint(u), "-instance", c.instance))
	}
	return agents
}

// allUsers lists every user ID of the instance.
func allUsers(in *core.Instance) []int {
	users := make([]int, in.NumUsers())
	for u := range users {
		users[u] = u
	}
	return users
}

// countsLine extracts the "counts [...]" line from a shard's output.
func countsLine(t *testing.T, p *proc) string {
	t.Helper()
	for _, line := range strings.Split(p.out.String(), "\n") {
		if strings.HasPrefix(line, "counts") {
			return strings.TrimSpace(strings.TrimPrefix(line, "counts"))
		}
	}
	t.Fatalf("%s: no counts line in output:\n%s", p.name, p.out.String())
	return ""
}

// peerReconnects parses the peer-reconnect count from a shard's "node"
// summary line.
func peerReconnects(t *testing.T, p *proc) int {
	t.Helper()
	for _, line := range strings.Split(p.out.String(), "\n") {
		if !strings.HasPrefix(line, "node") {
			continue
		}
		var shard, shards, batches, reconnects int
		if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "node")),
			"shard %d/%d, %d gossip batches, %d peer reconnects", &shard, &shards, &batches, &reconnects); err != nil {
			t.Fatalf("%s: unparsable node line %q: %v", p.name, line, err)
		}
		return reconnects
	}
	t.Fatalf("%s: no node line in output:\n%s", p.name, p.out.String())
	return 0
}

// userRoutes parses the per-user route lines from a shard's output into
// the given choices vector.
func userRoutes(t *testing.T, p *proc, choices []int) {
	t.Helper()
	for _, line := range strings.Split(p.out.String(), "\n") {
		var u, r int
		if n, _ := fmt.Sscanf(line, "  user %d -> route %d", &u, &r); n == 2 {
			if u < 0 || u >= len(choices) {
				t.Fatalf("%s: route line for unknown user %d", p.name, u)
			}
			if choices[u] != -1 {
				t.Fatalf("%s: user %d reported by two shards", p.name, u)
			}
			choices[u] = r
		}
	}
}
