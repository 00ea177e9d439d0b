// Command platformd runs the crowdsensing platform (Algorithm 2) as a TCP
// server. It builds a scenario from a dataset and seed, then waits for the
// user agents (cmd/useragent) to connect, drives the decision-slot protocol
// to a Nash equilibrium, and prints the outcome.
//
// The scenario derivation is shared with useragent: launching both with the
// same -dataset/-seed/-users/-tasks gives each agent its own preference
// weights while the platform keeps only the topology.
//
// Usage:
//
//	platformd -addr :7700 -dataset Shanghai -seed 9 -users 8 -tasks 20 -policy PUU
//	# then launch 8 agents:
//	for i in $(seq 0 7); do useragent -addr :7700 -user $i -dataset Shanghai -seed 9 -users 8 -tasks 20 & done
//
// With -shard k/K the process runs ONE node of a K-node federation: users
// are partitioned spatially, each node drives the slot protocol for its
// own users, and the peer mesh (one TCP link per peer pair, addresses from
// -peers) carries request broadcasts, gossip batches of the shared
// per-task counts, and recovery snapshots, while -addr keeps serving this
// node's own agents. With -http the shard topology is served at
// /api/v1/shards. A crashed node rejoins with -resume, replaying the
// replicated count store from any live peer:
//
//	platformd -shard 0/3 -peers :7801,:7802,:7803 -addr :7700 -policy PUU &
//	platformd -shard 1/3 -peers :7801,:7802,:7803 -addr :7710 -policy PUU &
//	platformd -shard 2/3 -peers :7801,:7802,:7803 -addr :7720 -policy PUU &
//
// With -frontdoor addr0,...,addrK-1 the process is instead the thin agent
// entry point of such a cluster: agents dial -addr as if it were a
// standalone platform and are routed to the shard owning their user.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/tsdb"
	"repro/internal/web"
)

// chainObservers fans one Observation out to every non-nil observer;
// PlatformConfig.Observer holds a single func.
func chainObservers(obs ...func(distributed.Observation)) func(distributed.Observation) {
	var live []func(distributed.Observation)
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return func(o distributed.Observation) {
		for _, fn := range live {
			fn(o)
		}
	}
}

// parseShardSpec parses -shard's "k/K" form.
func parseShardSpec(s string) (k, K int, err error) {
	if n, _ := fmt.Sscanf(s, "%d/%d", &k, &K); n != 2 || K < 1 || k < 0 || k >= K {
		return 0, 0, fmt.Errorf("bad -shard %q, want k/K with 0 <= k < K", s)
	}
	return k, K, nil
}

// splitAddrs parses a comma-separated address list.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// newTracer builds the flight-recorder tracer for -trace-dir: anomaly dumps
// are written to dir the moment a detector trips, and the caller writes a
// final snapshot on exit.
func newTracer(dir string, sample float64, capacity int) *tracing.Tracer {
	n := 0
	return tracing.New(tracing.Config{
		SampleRate: sample,
		Capacity:   capacity,
		OnAnomaly: func(d *tracing.Dump) {
			jsonl, chrome, err := d.WriteFiles(dir, fmt.Sprintf("platform-anomaly-%d", n))
			n++
			if err != nil {
				fmt.Fprintf(os.Stderr, "platformd: trace dump: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "platformd: ANOMALY %s — flight recorder dumped to %s and %s\n",
				d.Reason, jsonl, chrome)
		},
	})
}

// buildInstance derives the shared scenario; platformd and useragent call
// the same function with the same flags to agree on the game.
func buildInstance(dataset string, seed uint64, users, tasks int) (*core.Instance, error) {
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

func main() {
	var (
		addr      = flag.String("addr", ":7700", "listen address")
		dataset   = flag.String("dataset", "Shanghai", "dataset: Shanghai, Roma, or Epfl")
		seed      = flag.Uint64("seed", 1, "scenario seed (must match the agents)")
		users     = flag.Int("users", 8, "number of users (agents expected to connect)")
		tasks     = flag.Int("tasks", 20, "number of sensing tasks")
		policy    = flag.String("policy", "SUU", "user update selection: SUU or PUU")
		muxFlag   = flag.Int("mux", 0, "accept this many multiplexed agent connections (see useragent -mux) instead of one TCP connection per agent; 0 = per-agent connections")
		shardSpec = flag.String("shard", "", "run as node k of a K-node multi-node federation, written k/K (requires -peers)")
		peers     = flag.String("peers", "", "comma-separated peer-mesh addresses for all K shards, indexed by shard (with -shard); this node listens on its own entry")
		resume    = flag.Bool("resume", false, "rejoin a running federation after a crash, recovering the count store from a live peer (with -shard)")
		transcr   = flag.String("transcript", "", "write the selection transcript to this file (with -shard; appended when -resume)")
		slotDelay = flag.Duration("slot-delay", 0, "pause before each decision slot (with -shard; stretches runs for chaos testing)")
		frontdoor = flag.String("frontdoor", "", "run as the agent front door of a multi-node cluster: comma-separated shard agent addresses, indexed by shard")
		instance  = flag.String("instance", "", "load the game instance from a JSON file instead of building a scenario")
		dump      = flag.String("dump-instance", "", "write the game instance as JSON to this file before serving")
		httpAddr  = flag.String("http", "", "serve the monitoring API (/api/v1/*, /metrics, /healthz) on this address")
		pprofFlag = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the monitoring address")
		potential = flag.Bool("observe-potential", false, "compute the weighted potential every slot and expose it in the status API")
		traceDir  = flag.String("trace-dir", "", "enable the distributed tracer; anomaly dumps and the final flight-recorder snapshot are written here (JSONL + Chrome trace-event)")
		traceRate = flag.Float64("trace-sample", 1, "head-based trace sampling rate in [0,1] (with -trace-dir)")
		traceCap  = flag.Int("trace-capacity", tracing.DefaultCapacity, "flight recorder capacity in events (with -trace-dir)")

		seriesDir   = flag.String("series-dir", "", "persist the time-series telemetry store in this directory (append-only segments, replayed on restart); served at /api/v1/series on the monitoring address")
		seriesFlush = flag.Duration("series-flush", time.Second, "series store flush cadence (with -series-dir)")
		seriesRet   = flag.String("series-retention", "1s:1h,10s:12h,60s:168h", "series retention tiers, comma-separated interval:retention pairs (with -series-dir)")
	)
	flag.Parse()

	if *shardSpec != "" && (*muxFlag > 0 || *frontdoor != "") {
		fmt.Fprintln(os.Stderr, "platformd: -shard cannot be combined with -mux or -frontdoor")
		os.Exit(2)
	}
	if *frontdoor != "" && *muxFlag > 0 {
		fmt.Fprintln(os.Stderr, "platformd: -frontdoor cannot be combined with -mux")
		os.Exit(2)
	}
	if *shardSpec == "" && (*peers != "" || *resume || *transcr != "" || *slotDelay != 0) {
		fmt.Fprintln(os.Stderr, "platformd: -peers, -resume, -transcript, and -slot-delay require -shard")
		os.Exit(2)
	}

	// A multi-node shard is a long-lived cluster member; SIGTERM is its
	// normal decommission path and must read as a clean exit, not a crash
	// (kill -9 is the crash path the chaos harness exercises).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		fmt.Printf("platformd: received %v, shutting down\n", sig)
		os.Exit(0)
	}()

	var in *core.Instance
	var err error
	if *instance != "" {
		f, ferr := os.Open(*instance)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "platformd: %v\n", ferr)
			os.Exit(1)
		}
		in, err = core.ReadJSON(f)
		f.Close()
	} else {
		in, err = buildInstance(*dataset, *seed, *users, *tasks)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
		os.Exit(1)
	}
	if *dump != "" {
		f, ferr := os.Create(*dump)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "platformd: %v\n", ferr)
			os.Exit(1)
		}
		if err := in.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("platformd: instance written to %s\n", *dump)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
		os.Exit(1)
	}
	defer ln.Close()
	if *frontdoor != "" {
		shardAddrs := splitAddrs(*frontdoor)
		fmt.Printf("platformd: front door listening on %s, routing %d users to %d shards\n",
			ln.Addr(), in.NumUsers(), len(shardAddrs))
		err := distributed.ServeFrontDoor(ln, in, distributed.FrontDoorOptions{
			ShardAddrs: shardAddrs,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "platformd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("platformd: listening on %s, waiting for %d agents (%s, seed %d)\n",
		ln.Addr(), in.NumUsers(), *dataset, *seed)

	pcfg := distributed.PlatformConfig{
		Policy:           distributed.SelectionPolicy(*policy),
		Seed:             *seed,
		ObservePotential: *potential,
	}
	var tracer *tracing.Tracer
	if *traceDir != "" {
		tracer = newTracer(*traceDir, *traceRate, *traceCap)
		pcfg.Tracer = tracer
		fmt.Printf("platformd: tracing to %s (sample rate %g, capacity %d events)\n", *traceDir, *traceRate, *traceCap)
	}
	var series *tsdb.Store
	var recorder *tsdb.Recorder
	if *seriesDir != "" {
		tiers, terr := tsdb.ParseTiers(*seriesRet)
		if terr != nil {
			fmt.Fprintf(os.Stderr, "platformd: -series-retention: %v\n", terr)
			os.Exit(2)
		}
		series, err = tsdb.Open(tsdb.WithDir(*seriesDir), tsdb.WithTiers(tiers))
		if err != nil {
			fmt.Fprintf(os.Stderr, "platformd: series store: %v\n", err)
			os.Exit(1)
		}
		recorder = tsdb.NewRecorder(series)
		stopFlush := series.StartFlusher(*seriesFlush)
		stopCapture := recorder.StartRegistryCapture(telemetry.Default(), *seriesFlush)
		defer func() {
			stopCapture()
			stopFlush()
			if cerr := series.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "platformd: series store: %v\n", cerr)
			}
		}()
		fmt.Printf("platformd: series store at %s (flush every %v, tiers %s)\n", *seriesDir, *seriesFlush, *seriesRet)
	}
	var mon *web.Server
	if *httpAddr != "" {
		// Publish process runtime health (goroutines, heap, GC pauses) next
		// to the protocol metrics for the lifetime of the server.
		defer telemetry.StartRuntimeCollector(telemetry.Default(), 0).Stop()
		opts := []web.Option{web.WithRegistry(telemetry.Default()), web.WithTracer(tracer)}
		if *pprofFlag {
			opts = append(opts, web.WithPprof())
		}
		if series != nil {
			opts = append(opts, web.WithSeriesStore(series))
		}
		mon = web.NewServer(in.NumUsers(), opts...)
		pcfg.Observer = mon.Observer()
		go func() {
			if err := http.ListenAndServe(*httpAddr, mon.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "platformd: http: %v\n", err)
			}
		}()
		fmt.Printf("platformd: monitoring at http://%s/api/v1/status (metrics at /metrics)\n", *httpAddr)
		if *pprofFlag {
			fmt.Printf("platformd: profiling at http://%s/debug/pprof/\n", *httpAddr)
		}
	}
	if recorder != nil {
		pcfg.Observer = chainObservers(pcfg.Observer, recorder.Observer())
	}
	var stats distributed.RunStats
	var node *distributed.NodeStats
	switch {
	case *shardSpec != "":
		k, K, perr := parseShardSpec(*shardSpec)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "platformd: %v\n", perr)
			os.Exit(2)
		}
		peerAddrs := splitAddrs(*peers)
		if len(peerAddrs) != K {
			fmt.Fprintf(os.Stderr, "platformd: -peers lists %d addresses, -shard %s needs %d\n", len(peerAddrs), *shardSpec, K)
			os.Exit(2)
		}
		peerLn, lerr := net.Listen("tcp", peerAddrs[k])
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "platformd: peer mesh: %v\n", lerr)
			os.Exit(1)
		}
		nopts := distributed.NodeOptions{
			Shard: k, Shards: K, PeerAddrs: peerAddrs,
			Platform:  pcfg,
			Resume:    *resume,
			SlotDelay: *slotDelay,
		}
		if *transcr != "" {
			mode := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
			if *resume {
				// A rejoining incarnation continues its predecessor's file:
				// the init section restarts, the slot section resumes.
				mode = os.O_WRONLY | os.O_CREATE | os.O_APPEND
			}
			tf, terr := os.OpenFile(*transcr, mode, 0o644)
			if terr != nil {
				fmt.Fprintf(os.Stderr, "platformd: %v\n", terr)
				os.Exit(1)
			}
			defer tf.Close()
			nopts.Transcript = tf
		}
		if mon != nil {
			nopts.OnTopology = mon.SetTopology
			nopts.ShardObserver = mon.ShardObserver()
			nopts.PeerObserver = mon.PeerObserver()
		}
		fmt.Printf("platformd: shard %d/%d, peer mesh on %s\n", k, K, peerAddrs[k])
		var ns distributed.NodeStats
		ns, err = distributed.ServeNode(ln, peerLn, in, nopts)
		stats, node = ns.RunStats, &ns
	case *muxFlag > 0:
		stats, err = distributed.ServeTCPMux(ln, in, pcfg, *muxFlag)
	default:
		stats, err = distributed.ServeTCP(ln, in, pcfg)
	}
	if tracer != nil {
		// The final snapshot captures the whole run (or its tail, when the
		// recorder wrapped) even when no anomaly fired.
		jsonl, chrome, werr := tracer.Snapshot("final").WriteFiles(*traceDir, "platform-final")
		if werr != nil {
			fmt.Fprintf(os.Stderr, "platformd: trace dump: %v\n", werr)
		} else {
			fmt.Printf("platformd: flight recorder written to %s and %s\n", jsonl, chrome)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
		os.Exit(1)
	}
	if mon != nil {
		mon.Finish(stats.Choices)
	}
	if node != nil {
		// A shard only knows its own users' routes; global Nash and profit
		// are asserted by the harness that aggregates all shards' output.
		if node.Resumed {
			fmt.Printf("resumed        rejoined the federation at round %d\n", node.RejoinRound)
		}
		fmt.Printf("node           shard %d/%d, %d gossip batches, %d peer reconnects\n",
			node.Shard, node.Shards, node.GossipBatches, node.Reconnects)
		fmt.Printf("converged      %v after %d decision slots (%d updates)\n", stats.Converged, stats.Slots, stats.TotalUpdates)
		fmt.Printf("counts         %v\n", node.Counts)
		for u, c := range node.Choices {
			if c >= 0 {
				fmt.Printf("  user %-2d -> route %d\n", u, c)
			}
		}
		return
	}
	p, err := core.NewProfile(in, stats.Choices)
	if err != nil {
		fmt.Fprintf(os.Stderr, "platformd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("converged      %v after %d decision slots (%d updates)\n", stats.Converged, stats.Slots, stats.TotalUpdates)
	fmt.Printf("nash           %v\n", p.IsNash())
	fmt.Printf("total profit   %.3f\n", p.TotalProfit())
	fmt.Printf("coverage       %.3f\n", metrics.Coverage(p))
	fmt.Printf("jain fairness  %.3f\n", metrics.JainIndex(p))
	for i := 0; i < in.NumUsers(); i++ {
		fmt.Printf("  user %-2d -> route %d (profit %.3f)\n", i, p.Choice(core.UserID(i)), p.Profit(core.UserID(i)))
	}
}
