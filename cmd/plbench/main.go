// Command plbench regenerates the paper's evaluation and this
// repository's extension experiments (see DESIGN.md §4 for the
// experiment index).
//
// Usage:
//
//	plbench [-seed N] [-iters N] [-format table|csv] <experiment>
//
// Experiments:
//
//	table1             Table 1: access times, no-cache / miss / hit (T1)
//	notifier-verifier  notifier vs verifier consistency tradeoff (E1)
//	nv-sweep           E1 across update rates (figure-style series)
//	replacement        replacement policy ablation, GDS vs baselines (E2)
//	sharing            content-signature storage sharing (E3)
//	cacheability       cacheability indicator mix (E4)
//	chains             property-chain length vs latency (E5)
//	qos                QoS-driven replacement-cost inflation (E6)
//	collection         related-document (collection) prefetching (E8)
//	cost-ablation      property-cost signal ablation for GDS (E9)
//	placement          app-side vs server-side cache placement (E10)
//	parallel           parallel hit throughput + single-flight coalescing (E11)
//	memo               universal-stage memoization fan-out (E12)
//	obs                observability overhead + per-stage timings (E13)
//	resilience         connection resilience: crash/restart + deadlines (E14)
//	wire               wire protocol: pipelined binary framing (E15)
//	cluster            consistent-hash cluster scaling (E16)
//	prefix             longest-shared-prefix chain caching (E17)
//	swarm              trace-driven swarm latency/staleness/cost frontier (E18)
//	all                run everything
//
// Alternatively, -experiment <index> (currently e12–e18) runs one
// experiment by its DESIGN.md index and additionally writes its result
// as BENCH_<index>.json (BENCH_wire.json for e15, BENCH_cluster.json
// for e16, BENCH_prefix.json for e17, BENCH_swarm.json for e18) in the
// working directory, for machine consumers (CI trend tracking).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"placeless/internal/experiment"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	iters := flag.Int("iters", 5, "iterations per Table 1 cell")
	format := flag.String("format", "table", "output format: table or csv")
	expIndex := flag.String("experiment", "", "run one experiment by index (e.g. e12) and write BENCH_<index>.json")
	flag.Parse()
	if *expIndex != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: plbench [-seed N] -experiment <e12|e13|e14|e15|e16|e17|e18>")
			os.Exit(2)
		}
		if err := runIndexed(os.Stdout, *expIndex, *seed, *format); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 || (*format != "table" && *format != "csv") {
		fmt.Fprintln(os.Stderr, "usage: plbench [-seed N] [-iters N] [-format table|csv] <table1|notifier-verifier|nv-sweep|replacement|sharing|cacheability|chains|qos|collection|cost-ablation|placement|parallel|memo|obs|resilience|wire|cluster|prefix|swarm|all>")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *seed, *iters, *format); err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
		os.Exit(1)
	}
}

// runIndexed runs one experiment selected by its DESIGN.md index,
// prints the table, and writes the raw result struct as
// BENCH_<index>.json.
func runIndexed(w *os.File, index string, seed int64, format string) error {
	var res experiment.Result
	var title string
	switch index {
	case "e12":
		cfg := experiment.DefaultMemoConfig()
		cfg.Seed = seed
		r, err := experiment.RunMemo(cfg)
		if err != nil {
			return err
		}
		res, title = r, fmt.Sprintf("E12 — universal-stage memoization (doc=%dB chain=3×%v personal=%v rounds=%d)",
			cfg.DocSize, cfg.PropCost, cfg.PersonalCost, cfg.Rounds)
	case "e13":
		cfg := experiment.DefaultObsConfig()
		cfg.Seed = seed
		r, err := experiment.RunObs(cfg)
		if err != nil {
			return err
		}
		res, title = r, obsTitle(cfg)
	case "e14":
		cfg := experiment.DefaultResilienceConfig()
		cfg.Seed = seed
		r, err := experiment.RunResilience(cfg)
		if err != nil {
			return err
		}
		res, title = r, resilienceTitle(cfg)
	case "e15":
		cfg := experiment.DefaultWireConfig()
		cfg.Seed = seed
		r, err := experiment.RunWire(cfg)
		if err != nil {
			return err
		}
		res, title = r, wireTitle(cfg)
	case "e16":
		cfg := experiment.DefaultClusterConfig()
		cfg.Seed = seed
		r, err := experiment.RunCluster(cfg)
		if err != nil {
			return err
		}
		res, title = r, clusterTitle(cfg)
	case "e17":
		cfg := experiment.DefaultPrefixConfig()
		cfg.Seed = seed
		r, err := experiment.RunPrefix(cfg)
		if err != nil {
			return err
		}
		res, title = r, prefixTitle(cfg)
	case "e18":
		cfg := experiment.DefaultSwarmConfig()
		cfg.Seed = seed
		r, err := experiment.RunSwarm(cfg)
		if err != nil {
			return err
		}
		res, title = r, swarmTitle(cfg)
	default:
		return fmt.Errorf("unknown experiment index %q (have: e12, e13, e14, e15, e16, e17, e18)", index)
	}
	fmt.Fprintln(w, title)
	if format == "csv" {
		fmt.Fprintln(w, res.CSV())
	} else {
		fmt.Fprintln(w, res.Table())
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	out := "BENCH_" + index + ".json"
	switch index {
	case "e15":
		// E15's artifact carries the subsystem name: BENCH_wire.json.
		out = "BENCH_wire.json"
	case "e16":
		// E16's artifact carries the subsystem name: CI asserts the
		// scaling curve out of BENCH_cluster.json.
		out = "BENCH_cluster.json"
	case "e17":
		// E17's artifact carries the subsystem name: CI asserts the
		// shared-segment invariants out of BENCH_prefix.json.
		out = "BENCH_prefix.json"
	case "e18":
		// E18's artifact carries the workload name: CI asserts the
		// frontier's live cells out of BENCH_swarm.json.
		out = "BENCH_swarm.json"
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}

// run executes the selected experiment(s), writing results to w in the
// chosen format.
func run(w *os.File, which string, seed int64, iters int, format string) error {
	all := which == "all"
	ran := false

	emit := func(title string, res experiment.Result) {
		fmt.Fprintln(w, title)
		if format == "csv" {
			fmt.Fprintln(w, res.CSV())
		} else {
			fmt.Fprintln(w, res.Table())
		}
	}

	if all || which == "table1" {
		ran = true
		res, err := experiment.RunTable1(seed, iters)
		if err != nil {
			return err
		}
		emit("T1 — Table 1: document content access times (application-level cache)", res)
	}
	if all || which == "notifier-verifier" {
		ran = true
		cfg := experiment.DefaultNVConfig()
		cfg.Seed = seed
		res, err := experiment.RunNotifierVerifier(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E1 — notifier vs verifier (docs=%d reads=%d update every %d, %.0f%% out-of-band)",
			cfg.Docs, cfg.Reads, cfg.UpdateEvery, cfg.OutsideFrac*100), res)
	}
	if all || which == "nv-sweep" {
		ran = true
		cfg := experiment.DefaultNVConfig()
		cfg.Seed = seed
		res, err := experiment.RunNotifierVerifierSweep(cfg, experiment.DefaultNVSweepRates())
		if err != nil {
			return err
		}
		emit("E1b — notifier vs verifier across update rates (updates per read)", res)
	}
	if all || which == "replacement" {
		ran = true
		cfg := experiment.DefaultReplacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunReplacement(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E2 — replacement policies (docs=%d reads=%d zipf=%.2f capacity=%.0f%%)",
			cfg.Docs, cfg.Reads, cfg.Alpha, cfg.CapacityFrac*100), res)
	}
	if all || which == "sharing" {
		ran = true
		cfg := experiment.DefaultSharingConfig()
		cfg.Seed = seed
		res, err := experiment.RunSharing(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E3 — signature sharing (docs=%d users=%d)", cfg.Docs, cfg.Users), res)
	}
	if all || which == "cacheability" {
		ran = true
		cfg := experiment.DefaultCacheabilityConfig()
		cfg.Seed = seed
		res, err := experiment.RunCacheability(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E4 — cacheability mix (docs=%d reads=%d)", cfg.Docs, cfg.Reads), res)
	}
	if all || which == "chains" {
		ran = true
		cfg := experiment.DefaultChainsConfig()
		cfg.Seed = seed
		res, err := experiment.RunChains(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E5 — property chains (cost/property=%v doc=%dB)", cfg.PropCost, cfg.DocSize), res)
	}
	if all || which == "qos" {
		ran = true
		cfg := experiment.DefaultQoSConfig()
		cfg.Seed = seed
		res, err := experiment.RunQoS(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E6 — QoS cost inflation (background docs=%d reads=%d factor=%.0fx)",
			cfg.BackgroundDocs, cfg.Reads, cfg.CostFactor), res)
	}
	if all || which == "collection" {
		ran = true
		cfg := experiment.DefaultCollectionConfig()
		cfg.Seed = seed
		res, err := experiment.RunCollection(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E8 — collection prefetching (members=%d size=%dB, WAN-hosted)", cfg.Members, cfg.DocSize), res)
	}
	if all || which == "cost-ablation" {
		ran = true
		cfg := experiment.DefaultReplacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunCostAblation(cfg)
		if err != nil {
			return err
		}
		emit("E9 — replacement-cost signal ablation (GDS, same workload as E2)", res)
	}
	if all || which == "placement" {
		ran = true
		cfg := experiment.DefaultPlacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunPlacement(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E10 — cache placement (docs=%d reads=%d link=%v app-capacity=%.0f%%)",
			cfg.Docs, cfg.Reads, cfg.LinkCost, cfg.AppCapacityFrac*100), res)
	}
	if all || which == "parallel" {
		ran = true
		cfg := experiment.DefaultParallelConfig()
		cfg.Seed = seed
		res, err := experiment.RunParallel(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E11 — parallel hit throughput, sharded vs seed global mutex (docs=%d ops/goroutine=%d hit-cost=%v, real clock: rates are machine-dependent, compare the speedup column)",
			cfg.Docs, cfg.OpsPerGoroutine, cfg.HitCost), res)
	}
	if all || which == "memo" {
		ran = true
		cfg := experiment.DefaultMemoConfig()
		cfg.Seed = seed
		res, err := experiment.RunMemo(cfg)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("E12 — universal-stage memoization (doc=%dB chain=3×%v personal=%v rounds=%d)",
			cfg.DocSize, cfg.PropCost, cfg.PersonalCost, cfg.Rounds), res)
	}
	if all || which == "obs" {
		ran = true
		cfg := experiment.DefaultObsConfig()
		cfg.Seed = seed
		res, err := experiment.RunObs(cfg)
		if err != nil {
			return err
		}
		emit(obsTitle(cfg), res)
	}
	if all || which == "resilience" {
		ran = true
		cfg := experiment.DefaultResilienceConfig()
		cfg.Seed = seed
		res, err := experiment.RunResilience(cfg)
		if err != nil {
			return err
		}
		emit(resilienceTitle(cfg), res)
	}
	if all || which == "wire" {
		ran = true
		cfg := experiment.DefaultWireConfig()
		cfg.Seed = seed
		res, err := experiment.RunWire(cfg)
		if err != nil {
			return err
		}
		emit(wireTitle(cfg), res)
	}
	if all || which == "cluster" {
		ran = true
		cfg := experiment.DefaultClusterConfig()
		cfg.Seed = seed
		res, err := experiment.RunCluster(cfg)
		if err != nil {
			return err
		}
		emit(clusterTitle(cfg), res)
	}
	if all || which == "prefix" {
		ran = true
		cfg := experiment.DefaultPrefixConfig()
		cfg.Seed = seed
		res, err := experiment.RunPrefix(cfg)
		if err != nil {
			return err
		}
		emit(prefixTitle(cfg), res)
	}
	if all || which == "swarm" {
		ran = true
		cfg := experiment.DefaultSwarmConfig()
		cfg.Seed = seed
		res, err := experiment.RunSwarm(cfg)
		if err != nil {
			return err
		}
		emit(swarmTitle(cfg), res)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

// resilienceTitle renders E14's parameter line.
func resilienceTitle(cfg experiment.ResilienceConfig) string {
	return fmt.Sprintf("E14 — connection resilience: crash/restart per degraded policy + wedged-server deadlines (docs=%d backoff=%v..%v wedged-deadline=%v, real TCP/clock: compare counters and the deadline ratio)",
		cfg.Docs, cfg.BackoffBase, cfg.BackoffMax, cfg.WedgedTimeout)
}

// wireTitle renders E15's parameter line.
func wireTitle(cfg experiment.WireConfig) string {
	return fmt.Sprintf("E15 — wire protocol: pipelined binary framing (ops=%d concurrency=%d sizes=%v, loopback TCP/real clock: compare allocs/op and KB/op, not absolute rates)",
		cfg.Ops, cfg.Concurrency, cfg.BlobSizes)
}

// clusterTitle renders E16's parameter line.
func clusterTitle(cfg experiment.ClusterConfig) string {
	return fmt.Sprintf("E16 — consistent-hash cluster scaling (nodes=%v keys=%d reads=%d replicas=%d vnodes=%d, virtual per-node service time: compare the speedup column)",
		cfg.Nodes, cfg.Docs*cfg.Users, cfg.Reads, cfg.Replicas, cfg.VNodes)
}

// prefixTitle renders E17's parameter line.
func prefixTitle(cfg experiment.PrefixConfig) string {
	return fmt.Sprintf("E17 — longest-shared-prefix chain caching (doc=%dB universal=2×%v shared=%v personal=%v, cold miss storm)",
		cfg.DocSize, cfg.UniversalCost, cfg.SharedCost, cfg.PersonalCost)
}

// swarmTitle renders E18's parameter line.
func swarmTitle(cfg experiment.SwarmConfig) string {
	return fmt.Sprintf("E18 — trace-driven swarm frontier (users=%d docs=%d ops=%d zipf=%.2f flash=%.0fx nodes=%d workers=%d, real clock: latency columns are machine-dependent, counts are seed-deterministic)",
		cfg.Users, cfg.Docs, cfg.Ops, cfg.Alpha, cfg.FlashBoost, cfg.Nodes, cfg.Workers)
}

// obsTitle renders E13's parameter line.
func obsTitle(cfg experiment.ObsConfig) string {
	return fmt.Sprintf("E13 — observability overhead + stage timings (docs=%d goroutines=%d hit-cost=%v, real clock: rates are machine-dependent, compare the overhead rows)",
		cfg.Docs, cfg.Goroutines, cfg.HitCost)
}
