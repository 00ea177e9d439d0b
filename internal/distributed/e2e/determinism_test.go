package e2e

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/metrics"
)

// expectedTranscript runs the standalone platform under DET and renders
// its observations in the node transcript format — the reference the TCP
// cluster must reproduce byte for byte at every shard count (DET picks the
// lowest requesting user, whichever shard holds it).
func expectedTranscript(t *testing.T, in *core.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	_, err := distributed.RunInProcess(in, distributed.InProcessOptions{
		Platform: distributed.PlatformConfig{
			Policy: distributed.Deterministic,
			Seed:   1,
			Observer: func(o distributed.Observation) {
				if o.Slot == 0 {
					for u, r := range o.Choices {
						fmt.Fprintf(&buf, "init user %d route %d\n", u, r)
					}
					return
				}
				for _, u := range o.GrantedUsers {
					fmt.Fprintf(&buf, "slot %d user %d route %d\n", o.Slot, u, o.Choices[u])
				}
			},
		},
		AgentSeedBase: 1,
	})
	if err != nil {
		t.Fatalf("standalone platform: %v", err)
	}
	return buf.String()
}

// splitTranscript separates a transcript into its init lines and its slot
// section.
func splitTranscript(s string) (init []string, slots string) {
	var slotLines []string
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if strings.HasPrefix(line, "init ") {
			init = append(init, line)
		} else if line != "" {
			slotLines = append(slotLines, line)
		}
	}
	return init, strings.Join(slotLines, "\n")
}

// replayAndCheck replays a full transcript (init + slot sections) and
// asserts the paper's run invariants: the potential ascends across every
// slot, the slot count respects the Theorem-4 bound evaluated at the
// observed minimum ascent, and the final profile is a Nash equilibrium
// (zero gap).
func replayAndCheck(t *testing.T, in *core.Instance, transcript string) {
	t.Helper()
	choices, pots, err := distributed.ReplayTranscript(in, transcript)
	if err != nil {
		t.Fatal(err)
	}
	dPhiMin := math.Inf(1)
	for s := 1; s < len(pots); s++ {
		dPhi := pots[s] - pots[s-1]
		if dPhi <= 0 {
			t.Errorf("slot %d: potential did not ascend (delta %g)", s, dPhi)
		}
		if dPhi > 0 && dPhi < dPhiMin {
			dPhiMin = dPhi
		}
	}
	prof, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.IsNash() {
		t.Error("replayed final profile is not a Nash equilibrium")
	}
	if lastSlot := len(pots) - 1; lastSlot > 0 {
		eMin, _ := in.WeightBounds()
		bound := metrics.ConvergenceBound(in, dPhiMin*eMin)
		if float64(lastSlot) >= bound {
			t.Errorf("last improvement slot %d >= Theorem-4 bound %v", lastSlot, bound)
		}
	}
}

// TestDeterminismMatchesInProcess is the DET determinism regression: the
// multi-process TCP federation's selection transcript must be
// byte-identical on every node and byte-identical to the in-process
// standalone platform's, at K=1, 2 and 4 across real process and socket
// boundaries.
func TestDeterminismMatchesInProcess(t *testing.T) {
	in, instance := e2eInstance(t)
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		shardCounts = []int{2}
	}
	for _, K := range shardCounts {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			want := expectedTranscript(t, in)
			wantInit, wantSlots := splitTranscript(want)

			dir := t.TempDir()
			c := startCluster(t, in, instance, K, "DET", func(k int) []string {
				return []string{"-transcript", filepath.Join(dir, fmt.Sprintf("shard%d.transcript", k))}
			})
			agents := c.startAgents(t, allUsers(in))
			var gotInit []string
			var counts, gotSlots []string
			for k, s := range c.shards {
				if code := s.waitExit(t, 90*time.Second); code != 0 {
					t.Fatalf("shard %d exited %d:\n%s", k, code, s.out.String())
				}
				if !strings.Contains(s.out.String(), "converged      true") {
					t.Fatalf("shard %d did not report convergence:\n%s", k, s.out.String())
				}
				counts = append(counts, countsLine(t, s))
				raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard%d.transcript", k)))
				if err != nil {
					t.Fatal(err)
				}
				init, slots := splitTranscript(string(raw))
				gotInit = append(gotInit, init...)
				gotSlots = append(gotSlots, slots)
				if slots != wantSlots {
					t.Errorf("shard %d slot transcript diverges from the standalone platform:\n got:\n%s\nwant:\n%s", k, slots, wantSlots)
				}
			}
			for u, a := range agents {
				if code := a.waitExit(t, 30*time.Second); code != 0 {
					t.Fatalf("agent %d exited %d:\n%s", u, code, a.out.String())
				}
			}
			for k := 1; k < len(counts); k++ {
				if counts[k] != counts[0] {
					t.Errorf("final counts diverge: shard 0 %s, shard %d %s", counts[0], k, counts[k])
				}
			}
			sort.Slice(gotInit, func(i, j int) bool {
				var a, b int
				fmt.Sscanf(gotInit[i], "init user %d", &a)
				fmt.Sscanf(gotInit[j], "init user %d", &b)
				return a < b
			})
			if got := strings.Join(gotInit, "\n"); got != strings.Join(wantInit, "\n") {
				t.Errorf("merged init lines diverge:\n got:\n%s\nwant:\n%s", got, strings.Join(wantInit, "\n"))
			}
			// The protocol invariants, asserted on what the cluster
			// actually did: merge the init lines back with any one shard's
			// slot section and replay.
			replayAndCheck(t, in, strings.Join(gotInit, "\n")+"\n"+gotSlots[0])
		})
	}
}
