// Command useragent runs mobile users (Algorithm 1) as TCP clients of
// cmd/platformd. Each agent derives its own preference weights from the
// shared scenario flags (or takes them explicitly via -alpha/-beta/-gamma)
// and participates in the distributed route navigation protocol until a
// Nash equilibrium is reached. One user gets a connection of its own;
// a list of users shares one multiplexed connection.
//
// Usage:
//
//	useragent -addr :7700 -user 3 -dataset Shanghai -seed 9 -users 8 -tasks 20
//	useragent -addr :7700 -user 3 -alpha 0.8 -beta 0.2 -gamma 0.1
//	# run a whole fleet over one multiplexed connection:
//	useragent -addr :7700 -user 0,1,2,3,4,5,6,7 -dataset Shanghai -seed 9
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// parseUserList parses a comma-separated list of user IDs.
func parseUserList(s string) ([]int, error) {
	var ids []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad user id %q", f)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty user list")
	}
	return ids, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":7700", "platform address")
		user     = flag.String("user", "", "user ID (0-based, required); a comma-separated list runs that fleet over one multiplexed connection")
		dataset  = flag.String("dataset", "Shanghai", "dataset (must match platformd)")
		seed     = flag.Uint64("seed", 1, "scenario seed (must match platformd)")
		users    = flag.Int("users", 8, "number of users (must match platformd)")
		tasks    = flag.Int("tasks", 20, "number of tasks (must match platformd)")
		alpha    = flag.Float64("alpha", 0, "explicit α_i (0 = derive from scenario)")
		beta     = flag.Float64("beta", 0, "explicit β_i (0 = derive from scenario)")
		gamma    = flag.Float64("gamma", 0, "explicit γ_i (0 = derive from scenario)")
		instance = flag.String("instance", "", "derive weights from this instance JSON (written by platformd -dump-instance)")
		traceDir = flag.String("trace-dir", "", "record the agents' transport spans (under the platform's trace IDs) and write the flight recorder here on exit")
	)
	flag.Parse()

	if *user == "" {
		fmt.Fprintln(os.Stderr, "useragent: -user is required")
		os.Exit(2)
	}
	ids, err := parseUserList(*user)
	if err != nil {
		fmt.Fprintf(os.Stderr, "useragent: -user: %v\n", err)
		os.Exit(2)
	}
	var in *core.Instance
	if *alpha == 0 || *beta == 0 || *gamma == 0 {
		if in, err = loadSharedInstance(*instance, *dataset, *seed, *users, *tasks); err != nil {
			fmt.Fprintf(os.Stderr, "useragent: %v\n", err)
			os.Exit(1)
		}
	}
	var tracer *tracing.Tracer
	if *traceDir != "" {
		// The agents sample everything locally; their spans carry the trace
		// IDs propagated by the platform, so the recorders correlate.
		tracer = tracing.New(tracing.Config{})
	}
	cfgs := make([]distributed.AgentConfig, len(ids))
	for j, id := range ids {
		cfg := distributed.AgentConfig{
			User: id, Alpha: *alpha, Beta: *beta, Gamma: *gamma,
			Seed: *seed + uint64(id), Tracer: tracer,
		}
		if in != nil {
			if id >= in.NumUsers() {
				fmt.Fprintf(os.Stderr, "useragent: user %d outside instance (%d users)\n", id, in.NumUsers())
				os.Exit(2)
			}
			u := in.Users[id]
			cfg.Alpha, cfg.Beta, cfg.Gamma = u.Alpha, u.Beta, u.Gamma
		}
		cfgs[j] = cfg
	}
	name, prefix := fmt.Sprintf("useragent %d", ids[0]), fmt.Sprintf("agent-%d-final", ids[0])
	if len(cfgs) == 1 {
		fmt.Printf("%s: α=%.3f β=%.3f γ=%.3f connecting to %s\n", name, cfgs[0].Alpha, cfgs[0].Beta, cfgs[0].Gamma, *addr)
	} else {
		name, prefix = "useragent", "agents-mux-final"
		fmt.Printf("%s: %d agents over one muxed connection to %s\n", name, len(cfgs), *addr)
	}
	err = distributed.DialTCP(*addr, cfgs...)
	if tracer != nil {
		jsonl, chrome, werr := tracer.Snapshot("final").WriteFiles(*traceDir, prefix)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "useragent: trace dump: %v\n", werr)
		} else {
			fmt.Printf("%s: flight recorder written to %s and %s\n", name, jsonl, chrome)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "useragent: %v\n", err)
		os.Exit(1)
	}
	if len(cfgs) == 1 {
		fmt.Printf("%s: equilibrium reached, terminating\n", name)
	} else {
		fmt.Printf("%s: equilibrium reached, %d agents terminated\n", name, len(cfgs))
	}
}

// loadSharedInstance builds the full game instance the fleet derives its
// weights from: the JSON file when given, the shared scenario otherwise.
func loadSharedInstance(instance, dataset string, seed uint64, users, tasks int) (*core.Instance, error) {
	if instance != "" {
		f, err := os.Open(instance)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.ReadJSON(f)
	}
	spec, err := trace.SpecByName(dataset)
	if err != nil {
		return nil, err
	}
	w, err := experiments.NewWorld(spec, seed)
	if err != nil {
		return nil, err
	}
	sc, err := w.BuildScenario(experiments.ScenarioConfig{Users: users, Tasks: tasks}, rng.New(seed).Child())
	if err != nil {
		return nil, err
	}
	return sc.Instance, nil
}
