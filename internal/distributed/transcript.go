package distributed

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/distributed/federation"
)

// This file holds the selection transcript (NodeOptions.Transcript): the
// line-oriented record a federation shard writes of what the protocol
// decided, and — since no shard ever sees the full profile — the global
// record a federated run is checked against. Format:
//
//	init user U route R   one per user, after the handshake
//	slot S user U route R one per granted update, in grant order

// transcriptWriter wraps the transcript sink with a sticky error so the
// slot loop can write unconditionally and fail once, cleanly.
type transcriptWriter struct {
	w   io.Writer
	err error
}

func (t *transcriptWriter) printf(format string, args ...any) {
	if t.w == nil || t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// globalTranscript merges the node transcripts of one run into the global
// record: every user's init line, from its owning shard and in user order,
// then the slot section, which must be byte-identical on every shard.
func globalTranscript(part federation.Partition, nodes []string) (string, error) {
	var b strings.Builder
	inits := make([][]string, len(nodes))
	var slots string
	for k, tr := range nodes {
		i := strings.Index(tr, "slot ")
		if i < 0 {
			i = len(tr)
		}
		if k == 0 {
			slots = tr[i:]
		} else if tr[i:] != slots {
			return "", fmt.Errorf("distributed: shard %d's slot transcript diverges from shard 0's", k)
		}
		inits[k] = strings.SplitAfter(tr[:i], "\n")
		if len(inits[k]) != len(part.Owned[k])+1 {
			return "", fmt.Errorf("distributed: shard %d transcript has %d init lines for %d owned users", k, len(inits[k])-1, len(part.Owned[k]))
		}
	}
	pos := make([]int, len(part.Assign)) // user -> index in its shard's owned list
	for _, owned := range part.Owned {
		for i, u := range owned {
			pos[u] = i
		}
	}
	for u, k := range part.Assign {
		b.WriteString(inits[k][pos[u]])
	}
	b.WriteString(slots)
	return b.String(), nil
}

// ReplayTranscript replays a global selection transcript — the Transcript
// of FederatedStats, or any run's init lines followed by one slot section
// — on a fresh profile of in. It returns the final choices and the
// weighted potential Φ after the init lines and after each slot, so
// potentials[s] is Φ at the end of slot s. Slots must be numbered 1, 2,
// ... without gaps (every decision slot before termination grants at
// least one update).
func ReplayTranscript(in *core.Instance, transcript string) (choices []int, potentials []float64, err error) {
	choices = make([]int, in.NumUsers())
	for u := range choices {
		choices[u] = -1
	}
	type grant struct{ slot, user, route int }
	var grants []grant
	for _, line := range strings.Split(transcript, "\n") {
		var g grant
		switch {
		case line == "":
			continue
		case len(grants) == 0 && lineScan(line, "init user %d route %d", &g.user, &g.route):
		case lineScan(line, "slot %d user %d route %d", &g.slot, &g.user, &g.route) && g.slot > 0:
		default:
			return nil, nil, fmt.Errorf("distributed: malformed transcript line %q", line)
		}
		if g.user < 0 || g.user >= len(choices) || g.route < 0 || g.route >= len(in.Users[g.user].Routes) {
			return nil, nil, fmt.Errorf("distributed: transcript line %q names an unknown user or route", line)
		}
		if g.slot == 0 {
			choices[g.user] = g.route
		} else {
			grants = append(grants, g)
		}
	}
	// Φ is evaluated afresh after the init lines and after every slot, as
	// PlatformConfig.ObservePotential does, so the trace is bit-for-bit the
	// observed one, not an incremental sum over the moves.
	for i := 0; ; {
		prof, err := core.NewProfile(in, choices)
		if err != nil {
			// Only the init section can leave a user without a route.
			return nil, nil, fmt.Errorf("distributed: transcript init section: %w", err)
		}
		potentials = append(potentials, prof.Potential())
		if i == len(grants) {
			break
		}
		slot := grants[i].slot
		if slot != len(potentials) {
			return nil, nil, fmt.Errorf("distributed: transcript slot %d follows slot %d", slot, len(potentials)-1)
		}
		for ; i < len(grants) && grants[i].slot == slot; i++ {
			choices[grants[i].user] = grants[i].route
		}
	}
	return choices, potentials, nil
}

// lineScan reports whether line parses completely as format.
func lineScan(line, format string, args ...any) bool {
	n, err := fmt.Sscanf(line, format, args...)
	return err == nil && n == len(args)
}
