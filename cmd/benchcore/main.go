// Command benchcore runs the machine-readable benchmark suites
// (internal/benchcore) and writes their JSON baselines:
//
//   - core: the incremental game-state evaluation layer vs the Naive
//     differential-testing oracle → BENCH_incremental.json
//   - routing: the goal-directed routing engine and parallel scenario
//     builder vs the frozen reference implementations → BENCH_routing.json
//   - tracing: the distributed tracer's disabled/unsampled/sampled hot
//     paths and flight-recorder throughput → BENCH_tracing.json
//   - wire: the hand-rolled binary codec vs the gob oracle per message
//     kind, plus multiplexer throughput → BENCH_wire.json
//   - federation: the full in-process distributed protocol at shard
//     counts K ∈ {1,2,4,8}, recording aggregate shard-slot throughput
//     → BENCH_federation.json
//   - series: the time-series telemetry store's append/flush/query hot
//     paths → BENCH_series.json
//
// Examples:
//
//	go run ./cmd/benchcore -o BENCH_incremental.json              # core, full run
//	go run ./cmd/benchcore -benchtime 20ms -o /tmp/bench.json     # CI smoke
//	go run ./cmd/benchcore -min-speedup 5                         # gate: fail <5×
//	go run ./cmd/benchcore -suite routing -routing-o BENCH_routing.json \
//	    -min-scenario-speedup 3                                   # routing gates
//	go run ./cmd/benchcore -suite tracing -gate-tracing-allocs \
//	    -tracing-o BENCH_tracing.json                             # 0 allocs gate
//	go run ./cmd/benchcore -suite wire -min-wire-speedup 3 \
//	    -gate-wire-allocs -wire-o BENCH_wire.json                 # codec gates
//	go run ./cmd/benchcore -suite federation -fed-m 50000 \
//	    -min-fed-speedup 2 -fed-o BENCH_federation.json           # shard gate
//	go run ./cmd/benchcore -suite series -gate-series-allocs \
//	    -series-o BENCH_series.json                               # append gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchcore"
)

func main() {
	var (
		suite      = flag.String("suite", "core", "which suite to run: core, routing, tracing, wire, federation, series, or all")
		out        = flag.String("o", "BENCH_incremental.json", "output path for the core-suite JSON report")
		routingOut = flag.String("routing-o", "BENCH_routing.json", "output path for the routing-suite JSON report")
		tracingOut = flag.String("tracing-o", "BENCH_tracing.json", "output path for the tracing-suite JSON report")
		wireOut    = flag.String("wire-o", "BENCH_wire.json", "output path for the wire-suite JSON report")
		fedOut     = flag.String("fed-o", "BENCH_federation.json", "output path for the federation-suite JSON report")
		seriesOut  = flag.String("series-o", "BENCH_series.json", "output path for the series-suite JSON report")
		gateSeries = flag.Bool("gate-series-allocs", false, "fail unless every series-store append path is allocation-free")
		fedM       = flag.Int("fed-m", 50000, "user count the federation suite runs at")
		fedRounds  = flag.Int("fed-rounds", 10, "decision rounds each federation run is bounded to")
		fedShards  = flag.String("fed-shards", "1,2,4,8", "comma-separated shard counts the federation suite sweeps")
		minFed     = flag.Float64("min-fed-speedup", 0, "fail unless federated slot throughput at K=4 reaches this factor of the K=1 baseline (0 disables)")
		gateTrace  = flag.Bool("gate-tracing-allocs", false, "fail unless every gated tracer hot path is allocation-free")
		gateWire   = flag.Bool("gate-wire-allocs", false, "fail unless the binary codec's per-slot encode/decode paths are allocation-free")
		minWire    = flag.Float64("min-wire-speedup", 0, "fail unless the binary codec beats gob by this factor on SlotInfo/Request encode and decode (0 disables)")
		benchTime  = flag.String("benchtime", "1s", "per-benchmark measuring time (testing -benchtime syntax)")
		msFlag     = flag.String("m", "50,500,5000", "comma-separated user counts the core suite sweeps")
		naiveMax   = flag.Int("naive-max", 500, "largest M the naive oracle is benchmarked at")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless NashGap and Slot speedups at M=500 reach this factor (0 disables)")
		minScen    = flag.Float64("min-scenario-speedup", 0, "fail unless the scenario-build speedup at M=5000 reaches this factor and warm engine queries are allocation-free (0 disables)")
		minCH      = flag.Float64("min-ch-speedup", 0, "fail unless the contraction-hierarchy query speedup over ALT at the largest graph size reaches this factor (0 disables)")
	)
	testing.Init()
	flag.Parse()
	if err := flag.CommandLine.Set("test.benchtime", *benchTime); err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: bad -benchtime %q: %v\n", *benchTime, err)
		os.Exit(2)
	}
	runCore := *suite == "core" || *suite == "all"
	runRouting := *suite == "routing" || *suite == "all"
	runTracing := *suite == "tracing" || *suite == "all"
	runWire := *suite == "wire" || *suite == "all"
	runFed := *suite == "federation" || *suite == "all"
	runSeries := *suite == "series" || *suite == "all"
	if !runCore && !runRouting && !runTracing && !runWire && !runFed && !runSeries {
		fmt.Fprintf(os.Stderr, "benchcore: unknown -suite %q (want core, routing, tracing, wire, federation, series, or all)\n", *suite)
		os.Exit(2)
	}

	if runCore {
		var ms []int
		for _, f := range strings.Split(*msFlag, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || m <= 0 {
				fmt.Fprintf(os.Stderr, "benchcore: bad -m element %q\n", f)
				os.Exit(2)
			}
			ms = append(ms, m)
		}

		rep := benchcore.RunSuite(ms, *naiveMax, *benchTime)

		for _, e := range rep.Entries {
			line := fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
			if e.NsPerSlot > 0 {
				line += fmt.Sprintf(" %12.0f ns/slot", e.NsPerSlot)
			}
			if e.SlotsPerSec > 0 {
				line += fmt.Sprintf(" %12.1f slots/sec", e.SlotsPerSec)
			}
			fmt.Println(line)
		}
		for _, s := range rep.Speedups {
			fmt.Printf("speedup %-12s M=%-5d %8.1fx (naive %.0f ns/op, cached %.0f ns/op)\n",
				s.Metric, s.M, s.Speedup, s.NaiveNs, s.CachedNs)
		}

		writeJSON(*out, &rep)

		if *minSpeedup > 0 {
			for _, metric := range []string{"NashGap", "Slot"} {
				if got := rep.SpeedupFor(metric, 500); got < *minSpeedup {
					fmt.Fprintf(os.Stderr, "benchcore: %s speedup at M=500 is %.1fx, below the %.1fx floor\n",
						metric, got, *minSpeedup)
					os.Exit(1)
				}
			}
		}
	}

	if runRouting {
		rep := benchcore.RunRoutingSuite(*benchTime)

		for _, e := range rep.Entries {
			line := fmt.Sprintf("%-32s %12.0f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
			if e.QueriesPerSec > 0 {
				line += fmt.Sprintf(" %12.1f queries/sec", e.QueriesPerSec)
			}
			fmt.Println(line)
		}
		for _, s := range rep.Speedups {
			fmt.Printf("speedup %-20s size=%-7d %6.1fx (baseline %.0f ns/op, engine %.0f ns/op)\n",
				s.Metric, s.Size, s.Speedup, s.BaselineNs, s.EngineNs)
		}

		writeJSON(*routingOut, &rep)

		if *minScen > 0 {
			if got := rep.SpeedupFor("ScenarioBuild", 5000); got < *minScen {
				fmt.Fprintf(os.Stderr, "benchcore: scenario-build speedup at M=5000 is %.1fx, below the %.1fx floor\n",
					got, *minScen)
				os.Exit(1)
			}
			for _, v := range rep.GraphSizes {
				for _, metric := range []string{"ShortestPath", "ShortestPathCH"} {
					name := fmt.Sprintf("%s/engine/%d", metric, v)
					e := rep.EntryFor(name)
					if e == nil {
						fmt.Fprintf(os.Stderr, "benchcore: missing entry %s\n", name)
						os.Exit(1)
					}
					if e.AllocsPerOp != 0 {
						fmt.Fprintf(os.Stderr, "benchcore: %s allocates %d objects/op, want 0 (warm scratch)\n",
							name, e.AllocsPerOp)
						os.Exit(1)
					}
				}
			}
		}
		if *minCH > 0 {
			largest := 0
			for _, v := range rep.GraphSizes {
				if v > largest {
					largest = v
				}
			}
			if got := rep.SpeedupFor("ShortestPathCH", largest); got < *minCH {
				fmt.Fprintf(os.Stderr, "benchcore: CH-over-ALT speedup at |V|=%d is %.1fx, below the %.1fx floor\n",
					largest, got, *minCH)
				os.Exit(1)
			}
		}
	}

	if runTracing {
		rep := benchcore.RunTracingSuite(*benchTime)

		for _, e := range rep.Entries {
			line := fmt.Sprintf("%-24s %12.1f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
			if e.EventsPerSec > 0 {
				line += fmt.Sprintf(" %14.0f events/sec", e.EventsPerSec)
			}
			fmt.Println(line)
		}

		writeJSON(*tracingOut, &rep)

		if *gateTrace {
			if err := rep.CheckTracingAllocs(); err != nil {
				fmt.Fprintf(os.Stderr, "benchcore: tracing gate: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if runWire {
		rep := benchcore.RunWireSuite(*benchTime)

		for _, e := range rep.Entries {
			line := fmt.Sprintf("%-24s %12.1f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
			if e.MsgsPerSec > 0 {
				line += fmt.Sprintf(" %14.0f msgs/sec", e.MsgsPerSec)
			}
			if e.ReadsPerMsg > 0 {
				line += fmt.Sprintf(" %6.2f reads/msg", e.ReadsPerMsg)
			}
			fmt.Println(line)
		}
		for _, s := range rep.Speedups {
			fmt.Printf("speedup %-6s %-10s %8.1fx (gob %.0f ns/op, binary %.0f ns/op)\n",
				s.Op, s.Kind, s.Speedup, s.GobNs, s.BinaryNs)
		}

		writeJSON(*wireOut, &rep)

		if *gateWire {
			if err := rep.CheckWireAllocs(); err != nil {
				fmt.Fprintf(os.Stderr, "benchcore: wire alloc gate: %v\n", err)
				os.Exit(1)
			}
		}
		if *minWire > 0 {
			if err := rep.CheckWireSpeedups(*minWire); err != nil {
				fmt.Fprintf(os.Stderr, "benchcore: wire speedup gate: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if runFed {
		var ks []int
		for _, f := range strings.Split(*fedShards, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || k <= 0 {
				fmt.Fprintf(os.Stderr, "benchcore: bad -fed-shards element %q\n", f)
				os.Exit(2)
			}
			ks = append(ks, k)
		}
		rep, err := benchcore.RunFederationSuite(*fedM, *fedRounds, ks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcore: %v\n", err)
			os.Exit(1)
		}

		for _, e := range rep.Entries {
			fmt.Printf("Federation/K%-2d M=%-7d %3d rounds %8.3f s %12.1f slots/sec %9d gossip batches\n",
				e.Shards, rep.M, e.Rounds, e.WallSeconds, e.SlotsPerSec, e.GossipBatches)
		}
		for _, s := range rep.Speedups {
			fmt.Printf("speedup federation K=%-2d %8.2fx (K=1 %.1f slots/sec, K=%d %.1f slots/sec)\n",
				s.Shards, s.Speedup, s.BaseSlots, s.Shards, s.ShardSlots)
		}

		writeJSON(*fedOut, &rep)

		if *minFed > 0 {
			if err := rep.CheckFederationSpeedup(*minFed); err != nil {
				fmt.Fprintf(os.Stderr, "benchcore: federation gate: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if runSeries {
		rep := benchcore.RunSeriesSuite(*benchTime)

		for _, e := range rep.Entries {
			line := fmt.Sprintf("%-20s %12.1f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
			switch {
			case e.AppendsPerSec > 0:
				line += fmt.Sprintf(" %14.0f appends/sec", e.AppendsPerSec)
			case e.BucketsPerSec > 0:
				line += fmt.Sprintf(" %14.0f buckets/sec", e.BucketsPerSec)
			case e.QueriesPerSec > 0:
				line += fmt.Sprintf(" %14.0f queries/sec", e.QueriesPerSec)
			}
			fmt.Println(line)
		}

		writeJSON(*seriesOut, &rep)

		if *gateSeries {
			if err := rep.CheckSeriesAllocs(); err != nil {
				fmt.Fprintf(os.Stderr, "benchcore: series alloc gate: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// writeJSON serializes a report to path, exiting on failure.
func writeJSON(path string, v any) {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: %v\n", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
