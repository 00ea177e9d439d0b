// Command roundbench is the repository benchmark: it runs one seeded
// decision-round workload to equilibrium a fixed number of times and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON line. See NOTES.md for the workloads, the metric
// definitions and how the layers map onto the end-to-end figures.
//
//	roundbench --workload road-puu-nodes --seed 1 --seconds 40 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
)

// instances is how many independent instances a run draws from its seed.
// Episodes cycle through them, and every run makes at least one untraced
// episode of each, so a run's medians are taken over inputs as well as
// over repetitions: one instance with unusually many rounds or a high
// memory peak does not move the run's figures.
const instances = 3

// episodeSeconds is each workload's nominal episode time on the reference
// VM. An untraced run makes round(--seconds / episodeSeconds) episodes,
// and at least instances+1 so that one instance always runs twice. The
// count depends only on the arguments, never on how fast the host is, so
// every run of a seed pools the same inputs.
var episodeSeconds = map[string]float64{
	"synth-suu-mux":   8,
	"road-puu-nodes":  10,
	"road-puu-engine": 5,
}

// probesPerEpisode is how many set-up probes run before each untraced
// episode. A probe performs the episode's whole set-up, lets the first
// slot open, and then tears the system down, so setup_s is a median over
// many samples instead of a few.
const probesPerEpisode = 3

// deadline bounds a whole run: past it the benchmark reports failure
// rather than overrun the time a run may take.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayerUnits lists every per-layer metric a traced run reports. A
// workload that bypasses a layer reports it as 0.
var perLayerUnits = map[string]string{
	"distributed.fanout_ms":           "ms",
	"distributed.fanin_ms":            "ms",
	"distributed.decide_ms":           "ms",
	"distributed.commit_ms":           "ms",
	"distributed.close_ms":            "ms",
	"distributed.msgs_per_round":      "count",
	"distributed.requests_per_round":  "count",
	"distributed.grant_ratio":         "ratio",
	"agent.br_us_p50":                 "us",
	"agent.br_us_p90":                 "us",
	"agent.busy_ms_per_round":         "ms",
	"agent.grant_us_p50":              "us",
	"wire.bytes_per_msg":              "bytes",
	"wire.bytes_per_round":            "bytes",
	"wire.writes_per_round":           "count",
	"wire.reads_per_round":            "count",
	"wire.write_ms_per_round":         "ms",
	"federation.peer_bytes_per_round": "bytes",
	"federation.exchange_ms":          "ms",
	"federation.barrier_ms":           "ms",
	"federation.shard_skew_ms":        "ms",
	"engine.collect_ms":               "ms",
	"engine.select_ms":                "ms",
	"engine.requests_per_slot":        "count",
	"engine.selected_per_slot":        "count",
	"core.apply_us":                   "us",
	"core.profile_build_ms":           "ms",
	"core.nashgap_ms":                 "ms",
	"roadnet.scenario_build_ms":       "ms",
	"runtime.alloc_kb_per_round":      "KiB",
	"runtime.mallocs_per_round":       "count",
	"runtime.gc_per_round":            "count",
	"runtime.gc_pause_ms_per_round":   "ms",
	"env.steal_pct":                   "%",
	"env.iowait_pct":                  "%",
	"env.calib_ms":                    "ms",
	"trace.overhead_pct":              "%",
	"trace.uncovered_pct":             "%",
}

// mode selects what an episode function does with instance j.
type mode int

const (
	modePlain  mode = iota // run to equilibrium, untraced
	modeTraced             // run to equilibrium with every layer wrapped
	modeProbe              // set up, open the first slot, tear down
)

// workload runs one episode (or set-up probe) on instance j; inputs are
// made once per run from the seed.
type workload func(j int, m mode) (episode, error)

func setup(name string, seed uint64) (workload, error) {
	switch name {
	case "synth-suu-mux":
		var ins []*core.Instance
		for j := 0; j < instances; j++ {
			ins = append(ins, synthInstance(seed, j))
		}
		return func(j int, m mode) (episode, error) { return synthEpisode(ins[j], m) }, nil
	case "road-puu-nodes", "road-puu-engine":
		ds, err := roadDataset()
		if err != nil {
			return nil, err
		}
		if name == "road-puu-nodes" {
			return func(j int, m mode) (episode, error) {
				return nodeEpisode(ds, instanceStream(seed, j), m)
			}, nil
		}
		return func(j int, m mode) (episode, error) {
			return engineEpisode(ds, instanceStream(seed, j), m)
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want synth-suu-mux, road-puu-nodes or road-puu-engine)", name)
}

func main() {
	name := flag.String("workload", "", "synth-suu-mux, road-puu-nodes or road-puu-engine")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "nominal run length; fixes the number of episodes")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced episodes")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "roundbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "roundbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	res, err := run(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// step is one entry of a run's plan: an episode or probe of instance j.
type step struct {
	j int
	m mode
}

// plan lists a run's steps. An untraced run makes a fixed number of
// episodes, cycling through the instances, each preceded by its set-up
// probes. A traced run makes one untraced and one traced episode of each
// instance, in that order, so its counts repeat exactly for a seed and
// the tracing overhead is measured on the same inputs in the same run.
func plan(episodes int, tracedRun bool) []step {
	var out []step
	if tracedRun {
		for j := 0; j < instances; j++ {
			out = append(out, step{j, modePlain}, step{j, modeTraced})
		}
		return out
	}
	for i := 0; i < episodes; i++ {
		j := i % instances
		for k := 0; k < probesPerEpisode; k++ {
			out = append(out, step{j, modeProbe})
		}
		out = append(out, step{j, modePlain})
	}
	return out
}

// episodeCount is how many untraced episodes a run of the named workload
// makes for the given --seconds.
func episodeCount(name string, seconds int) int {
	n := int(math.Round(float64(seconds) / episodeSeconds[name]))
	return max(instances+1, n)
}

// run makes the inputs, then runs the plan. Every probe and episode is an
// attempt; one that errors or fails a check is counted as failed.
func run(name string, seed uint64, seconds int, tracedRun bool) (result, error) {
	env := newEnvRecord()
	env.CalibMs[0] = calibrate()
	stat0, statErr := readProcStat()
	wl, err := setup(name, seed)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	var plainEps, tracedEps []episode
	var setups []float64
	// first[j] is instance j's first episode; every later one must match it.
	first := map[int]episode{}
	for _, st := range plan(episodeCount(name, seconds), tracedRun) {
		if res.Failed >= 3 {
			break
		}
		// Start every episode and probe from the same memory state: the
		// previous one's garbage collected and returned to the OS, and the
		// peak RSS reset, so an episode's peak is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		ep, err := wl(st.j, st.m)
		res.Attempted++
		if err == nil && st.m != modeProbe {
			ep.peakRSSMB, err = peakRSSMB()
		}
		// Every episode of an instance has the same inputs, so it must take
		// the same path to the same equilibrium: rounds_to_eq repeats
		// exactly, and a traced trajectory equals the untraced one.
		if f, ok := first[st.j]; err == nil && ok && st.m != modeProbe && (ep.rounds != f.rounds || ep.fp != f.fp) {
			err = fmt.Errorf("instance %d took %d rounds (trajectory %x), its first episode %d (%x)",
				st.j, ep.rounds, ep.fp, f.rounds, f.fp)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "roundbench: attempt %d: %v\n", res.Attempted, err)
			continue
		}
		if st.m == modeProbe {
			setups = append(setups, float64(ep.setupNs)/1e9)
			continue
		}
		fmt.Fprintf(os.Stderr, "roundbench: attempt %d instance %d traced=%v setup %.3fs tte %.3fs rounds %d peak RSS %.1f MiB\n",
			res.Attempted, st.j, st.m == modeTraced, float64(ep.setupNs)/1e9, float64(ep.tteNs)/1e9, ep.rounds, ep.peakRSSMB)
		if _, ok := first[st.j]; !ok {
			first[st.j] = ep
		}
		if st.m == modeTraced {
			tracedEps = append(tracedEps, ep)
		} else {
			plainEps = append(plainEps, ep)
			setups = append(setups, float64(ep.setupNs)/1e9)
		}
	}
	if statErr == nil {
		if stat1, err := readProcStat(); err == nil {
			env.StealPct, env.IOWaitPct = stat0.shares(stat1)
		}
	}
	env.CalibMs[1] = calibrate()
	envLine, err := json.Marshal(map[string]envRecord{"env": env})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(envLine))

	res.Correct = res.Failed == 0 && len(first) == instances
	if len(plainEps) == 0 || tracedRun && len(tracedEps) == 0 {
		return res, errors.New("no episode completed")
	}
	if tracedRun {
		res.Metrics = layerMetrics(plainEps, tracedEps, env)
		if err := writeSpans(name, seed, tracedEps[len(tracedEps)-1].spans); err != nil {
			return result{}, err
		}
		return res, nil
	}
	res.Metrics = endToEnd(plainEps, setups, first)
	return res, nil
}

// endToEnd computes the end-to-end metrics over a run's untraced episodes
// and every set-up sample (probes and episodes); rounds_to_eq is the mean
// over the run's instances.
func endToEnd(eps []episode, setups []float64, first map[int]episode) map[string]metric {
	var tte, rounds, rss []float64
	var cpu int64
	var nRounds int
	for _, ep := range eps {
		tte = append(tte, float64(ep.tteNs)/1e9)
		rss = append(rss, ep.peakRSSMB)
		rounds = append(rounds, ep.roundMs...)
		cpu += ep.cpuNs
		nRounds += ep.rounds
	}
	p90, _ := tailQuantile(rounds, 0.9)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"tte_s":            {median(tte), "s"},
		"round_p50_ms":     {quantile(rounds, 0.5), "ms"},
		"round_p90_ms":     {p90, "ms"},
		"cpu_ms_per_round": {float64(cpu) / 1e6 / float64(nRounds), "ms"},
		"peak_rss_mb":      {median(rss), "MiB"},
		"rounds_to_eq":     {meanRounds(first), "count"},
	}
}

// layerMetrics reports each per-layer metric as its median over the traced
// episodes, plus the run's environment and the tracing overhead.
func layerMetrics(plain, traced []episode, env envRecord) map[string]metric {
	out := map[string]metric{}
	for name, unit := range perLayerUnits {
		var vals []float64
		for _, ep := range traced {
			vals = append(vals, ep.layers[name])
		}
		out[name] = metric{median(vals), unit}
	}
	var tp, tt []float64
	for _, ep := range plain {
		tp = append(tp, float64(ep.tteNs))
	}
	for _, ep := range traced {
		tt = append(tt, float64(ep.tteNs))
	}
	out["trace.overhead_pct"] = metric{100 * (median(tt)/median(tp) - 1), "%"}
	out["env.steal_pct"] = metric{env.StealPct, "%"}
	out["env.iowait_pct"] = metric{env.IOWaitPct, "%"}
	out["env.calib_ms"] = metric{median(env.CalibMs[:]), "ms"}
	return out
}

// writeSpans writes a traced episode's round and phase spans as JSON lines
// under .bench_build/spans/ in the working directory.
func writeSpans(name string, seed uint64, log *spanLog) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range log.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func meanRounds(first map[int]episode) float64 {
	var sum int
	for _, ep := range first {
		sum += ep.rounds
	}
	return float64(sum) / float64(len(first))
}
