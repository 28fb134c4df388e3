// Command actyp-bench regenerates the evaluation figures of the paper
// (Section 7, Figures 4-9) plus the design ablations, printing each as a
// text table of the plotted series.
//
// Usage:
//
//	actyp-bench -fig 4        # one figure
//	actyp-bench -fig all      # everything
//	actyp-bench -fig all -quick   # reduced scale for a fast smoke run
//
// Absolute response times depend on the host; the paper's *shapes* (more
// pools -> faster, bigger pools -> slower, splitting and replication help,
// heavy-tailed CPU times) are what the tables reproduce.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"actyp/internal/experiments"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/schedule"
)

// jsonDir, when non-empty, receives one BENCH_<figure>.json per figure
// whose driver emits machine-readable series (the perf trajectory shape).
var jsonDir string

// laneWeights is the -lane-weights spec applied to the overload figure.
var laneWeights schedule.LaneWeights

// hedgeDelay is the -hedge-delay stagger applied to the federation
// figure's fan-out leg (0 races the full width at once).
var hedgeDelay time.Duration

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, 8, 9, ablations, registry, pipeline, transport, codec, refresh, overload, wan, federation, recovery, partition or all")
	quick := flag.Bool("quick", false, "reduced scale for a fast run")
	laneSpec := flag.String("lane-weights", "", "lane weight spec for the overload figure, e.g. lease=4,bulk=1 (default from schedule)")
	regBackend := flag.String("registry-backend", "", "white-pages engine for the figure experiments: sharded or locked (default sharded)")
	regShards := flag.Int("registry-shards", 0, "shard count for the sharded backend (0: GOMAXPROCS-scaled)")
	poolEngine := flag.String("pool-engine", "", "pool allocation engine: indexed or oracle (default indexed; ScanCost figures stay on oracle)")
	wireCodec := flag.String("wire-codec", "", "wire codec preference for the transport figure: auto, binary or json (the codec figure sweeps both regardless)")
	hedge := flag.Duration("hedge-delay", 0, "fan-out stagger for the federation figure, e.g. 10ms (0 races the full width at once)")
	jsonOut := flag.String("json", "", "also write BENCH_<figure>.json files into this directory")
	flag.Parse()

	if err := experiments.UseRegistry(*regBackend, *regShards); err != nil {
		log.Fatalf("actyp-bench: %v", err)
	}
	if err := experiments.UsePoolEngine(*poolEngine); err != nil {
		log.Fatalf("actyp-bench: %v", err)
	}
	if err := experiments.UseWireCodec(*wireCodec); err != nil {
		log.Fatalf("actyp-bench: %v", err)
	}
	weights, err := schedule.ParseLaneWeights(*laneSpec)
	if err != nil {
		log.Fatalf("actyp-bench: %v", err)
	}
	laneWeights = weights
	hedgeDelay = *hedge
	jsonDir = *jsonOut

	run := func(name string, fn func(bool) error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		if err := fn(*quick); err != nil {
			log.Fatalf("actyp-bench: figure %s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("4", fig4)
	run("5", fig5)
	run("6", fig6)
	run("7", fig7)
	run("8", fig8)
	run("9", fig9)
	run("ablations", ablations)
	run("registry", figRegistry)
	run("pipeline", figPipeline)
	run("transport", figTransport)
	run("codec", figCodec)
	run("refresh", figRefresh)
	run("overload", figOverload)
	run("wan", figWan)
	run("federation", figFederation)
	run("recovery", figRecovery)
	run("partition", figPartition)
}

// emit prints the series as a text table and, with -json, records them as
// BENCH_<name>.json for the perf trajectory.
func emit(name, title, xLabel, yLabel string, series []metrics.Series) error {
	if err := metrics.Table(os.Stdout, title, xLabel, yLabel, series); err != nil {
		return err
	}
	if jsonDir == "" {
		return nil
	}
	path := filepath.Join(jsonDir, "BENCH_"+name+".json")
	if err := metrics.WriteBenchFile(path, metrics.Bench{
		Benchmark: name, XLabel: xLabel, YLabel: yLabel, Series: series,
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
	return nil
}

// figRegistry sweeps the white-pages hot path (striped Select plus the
// Section 5.2.3 Take protocol) across fleet sizes, comparing the locked
// reference engine against the sharded, index-accelerated one.
func figRegistry(quick bool) error {
	cfg := experiments.DefaultRegistryScale()
	if quick {
		cfg.Sizes = []int{1000, 10000}
		cfg.OpsPerClient = 10
	}
	series, err := experiments.RegistryScale(cfg)
	if err != nil {
		return err
	}
	return emit("registry", "Registry: Select+Take response time vs fleet size, per backend",
		"machines", "mean op (s)", series)
}

// figPipeline sweeps the end-to-end lease pipeline (Ask -> Allocate ->
// Release through query manager, pool manager, and one fleet-wide pool)
// across fleet sizes, comparing the oracle allocator against the indexed
// one.
func figPipeline(quick bool) error {
	cfg := experiments.DefaultPipelineScale()
	if quick {
		cfg.Sizes = []int{1000, 10000}
		cfg.OpsPerClient = 10
	}
	series, err := experiments.PipelineScale(cfg)
	if err != nil {
		return err
	}
	return emit("pipeline", "Pipeline: Ask->Allocate->Release response time vs fleet size, per pool engine",
		"machines", "mean op (s)", series)
}

// figTransport sweeps single-connection throughput against concurrent
// in-flight callers, per server-side dispatch window: the multiplexed
// transport's gain over the old one-frame-at-a-time connection handling.
func figTransport(quick bool) error {
	cfg := experiments.DefaultTransport()
	if quick {
		cfg.Machines = 2000
		cfg.Windows = []int{1, 8}
		cfg.Clients = []int{1, 4, 8}
		cfg.OpsPerClient = 15
	}
	series, err := experiments.TransportScale(cfg)
	if err != nil {
		return err
	}
	return emit("transport", "Transport: single-connection throughput vs in-flight callers, per window",
		"concurrent callers", "throughput (ops/s)", series)
}

// figCodec sweeps the wire codecs: end-to-end ops/s with both ends pinned
// to one codec at several request payload sizes, plus a socket-free
// frames/s sweep through each codec's encode+decode round trip.
func figCodec(quick bool) error {
	cfg := experiments.DefaultCodec()
	if quick {
		cfg.Machines = 2000
		cfg.PayloadBytes = []int{0, 4096}
		cfg.OpsPerClient = 15
		cfg.FrameIters = 3000
	}
	ops, frames, err := experiments.CodecScale(cfg)
	if err != nil {
		return err
	}
	if err := emit("codec", "Codec: end-to-end throughput vs request payload size, per wire codec",
		"payload pad (bytes)", "throughput (ops/s)", ops); err != nil {
		return err
	}
	return emit("codec_frames", "Codec: encode+decode round trips vs request payload size, per wire codec",
		"payload pad (bytes)", "frames/s", frames)
}

// figRefresh sweeps allocate-latency p99 under sustained monitor sweeps
// across fleet sizes, with the change stream keeping the pool fresh.
func figRefresh(quick bool) error {
	cfg := experiments.DefaultRefreshScale()
	if quick {
		cfg.Sizes = []int{1000, 5000}
		cfg.OpsPerClient = 25
	}
	series, err := experiments.RefreshScale(cfg)
	if err != nil {
		return err
	}
	return emit("refresh", "Refresh: allocate p99 under sustained monitor sweeps",
		"machines", "p99 op (s)", series)
}

// figOverload drives one shared connection with control pings plus a
// growing bulk-query flood, comparing FIFO dispatch against the overload
// control path (priority lanes + deadline-aware shedding). The result's
// Check() is the regression bar — control-lane p99 at the highest load
// must stay within a small multiple of its 1x value — so a CI smoke run
// of this figure is the overload regression gate.
func figOverload(quick bool) error {
	cfg := experiments.DefaultOverload()
	cfg.Weights = laneWeights
	if quick {
		cfg.Machines = 2000
		cfg.Loads = []int{1, 4}
		cfg.BulkPerLoad = 4
		cfg.ControlClients = 2
		cfg.Window = 2
		cfg.QueueCap = 8
		cfg.Duration = 500 * time.Millisecond
	}
	res, err := experiments.OverloadScale(cfg)
	if err != nil {
		return err
	}
	if err := emit("overload", "Overload: control-plane ping p99 vs offered load, per dispatch mode",
		"load multiplier", "control p99 (ms)", res.ControlP99); err != nil {
		return err
	}
	goodput := append(relabel("goodput, ", res.Goodput), relabel("shed, ", res.Shed)...)
	if err := emit("overload_goodput", "Overload: bulk goodput and client-observed sheds vs offered load, per dispatch mode",
		"load multiplier", "bulk ops/s", goodput); err != nil {
		return err
	}
	for i, c := range res.BulkCounts {
		fmt.Printf("# lanes bulk counters at %gx: admitted=%d shed=%d expired=%d done=%d\n",
			res.ControlP99[0].Points[i].X, c.Admitted, c.Shed, c.Expired, c.Done)
	}
	return res.Check()
}

// figWan sweeps record-batch replies across payload size, network profile
// (LAN vs bandwidth-modeled WAN), and wire encoding (full baseline, delta
// batch, delta+flate). The bytes-per-op series comes from the client
// connection's metrics.WireStats; the result's Check() is the regression
// bar — compressed+delta must move >=5x fewer bytes (or complete >=3x the
// ops/s) than the full baseline at the 8KiB-class WAN point — so a CI
// smoke run of this figure is the WAN-wire regression gate.
func figWan(quick bool) error {
	cfg := experiments.DefaultWan()
	if quick {
		cfg.Machines = 128
		cfg.Batches = []int{4, 32}
		cfg.Clients = 4
		cfg.OpsPerClient = 8
	}
	res, err := experiments.WanScale(cfg)
	if err != nil {
		return err
	}
	if err := emit("wan", "WAN wire: select throughput vs records per reply, per profile and encoding",
		"records per reply", "throughput (ops/s)", res.Ops); err != nil {
		return err
	}
	if err := emit("wan_bytes", "WAN wire: bytes on the wire per select, per profile and encoding",
		"records per reply", "wire bytes per op", res.Bytes); err != nil {
		return err
	}
	return res.Check()
}

// figFederation runs the federated-resolution sweeps: miss-resolve p50/p99
// at a home manager delegating to wire-connected peers (serial walk vs
// first-win fan-out, LAN vs WAN), and remote allocate p50/p99 plus
// update-visibility lag on a wire-fed replica (watch stream vs poll
// ladder). The result's Check() is the regression bar — fan-out must cut
// WAN miss-resolve p99 >=3x at the largest peer count, and watch must beat
// poll remote-allocate p99 >=5x at the largest fleet — so a CI smoke run
// of this figure is the federation regression gate.
func figFederation(quick bool) error {
	cfg := experiments.DefaultFederation()
	cfg.HedgeDelay = hedgeDelay
	if quick {
		cfg.Peers = []int{1, 4}
		cfg.OpsPerClient = 4
		cfg.Clients = 2
		cfg.FreshSizes = []int{5000}
		cfg.FreshClients = 4
		cfg.FreshOps = 50
		cfg.LagSamples = 8
	}
	res, err := experiments.FederationScale(cfg)
	if err != nil {
		return err
	}
	if err := emit("federation", "Federation: miss-resolve (peers on x) and remote freshness (machines on x), per mode",
		"peers | machines", "p50/p99 (s)", res.AllSeries()); err != nil {
		return err
	}
	return res.Check()
}

// figRecovery measures the durability subsystem: cold-boot recovery time
// (journal replay + registry restore + lease re-adoption) across fleet
// sizes, allocate p99 on the freshly recovered daemon, and the
// allocate-p99 overhead of each journal fsync policy against the
// no-journal baseline. The result's Check() is the regression bar —
// recovery at the largest fleet inside experiments.ReplayBar, every
// journaled lease restored, and fsync=interval within 2x of no-journal
// allocate p99 — so a CI smoke run of this figure is the durability
// regression gate.
func figRecovery(quick bool) error {
	cfg := experiments.DefaultRecovery()
	if quick {
		cfg.Sizes = []int{500, 2000}
		cfg.Leases = 16
		cfg.Clients = 4
		cfg.OpsPerClient = 15
		cfg.FsyncMachines = 500
	}
	res, err := experiments.RecoveryScale(cfg)
	if err != nil {
		return err
	}
	series := append([]metrics.Series{res.Recovery, res.Allocate}, res.Fsync...)
	if err := emit("recovery", "Recovery: cold-boot time and allocate p99 vs fleet size, plus fsync-policy overhead",
		"machines | fsync policy index", "ms", series); err != nil {
		return err
	}
	fmt.Printf("# recovery at largest fleet: restored=%d reaped=%d\n", res.Restored, res.Reaped)
	return res.Check()
}

// relabel prefixes each series label, so two result groups can share one
// table without colliding.
func relabel(prefix string, series []metrics.Series) []metrics.Series {
	out := make([]metrics.Series, len(series))
	for i, s := range series {
		out[i] = s
		out[i].Label = prefix + s.Label
	}
	return out
}

func fig4(quick bool) error {
	cfg := experiments.DefaultFig4()
	if quick {
		cfg.Machines = 320
		cfg.Pools = []int{2, 4, 8, 16}
		cfg.Clients = 8
		cfg.QueriesPerClient = 5
		cfg.ScanCost = 20 * time.Microsecond
	}
	s, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Figure 4: effect of pools on response time (LAN)",
		"pools", "mean response (s)", []metrics.Series{s})
}

func fig5(quick bool) error {
	cfg := experiments.DefaultFig5()
	if quick {
		cfg.Machines = 320
		cfg.Pools = []int{1, 4, 16}
		cfg.ClientCounts = []int{8, 16}
		cfg.QueriesPerClient = 3
		cfg.Profile = netsim.Profile{Latency: 10 * time.Millisecond, Jitter: time.Millisecond, Seed: 1}
		cfg.ScanCost = 20 * time.Microsecond
	}
	series, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Figure 5: effect of pools on response time (WAN)",
		"pools", "mean response (s)", series)
}

func fig6(quick bool) error {
	cfg := experiments.DefaultFig6()
	if quick {
		cfg.PoolSizes = []int{100, 400}
		cfg.Clients = []int{1, 8, 16}
		cfg.QueriesPerClient = 5
		cfg.ScanCost = 50 * time.Microsecond
	}
	series, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Figure 6: effect of pool size on response time",
		"clients", "mean response (s)", series)
}

func fig7(quick bool) error {
	cfg := experiments.DefaultFig7()
	if quick {
		cfg.Machines = 400
		cfg.Clients = []int{8, 16}
		cfg.QueriesPerClient = 5
		cfg.ScanCost = 50 * time.Microsecond
	}
	series, err := experiments.Fig7(cfg)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Figure 7: effect of splitting on response time",
		"clients", "mean response (s)", series)
}

func fig8(quick bool) error {
	cfg := experiments.DefaultFig8()
	if quick {
		cfg.Machines = 400
		cfg.Clients = []int{8, 16}
		cfg.QueriesPerClient = 5
		cfg.ScanCost = 50 * time.Microsecond
	}
	series, err := experiments.Fig8(cfg)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Figure 8: effect of replication on response time",
		"clients", "mean response (s)", series)
}

func fig9(quick bool) error {
	cfg := experiments.DefaultFig9()
	if quick {
		cfg.Runs = 30000
	}
	series, stats, err := experiments.Fig9(cfg)
	if err != nil {
		return err
	}
	if err := metrics.Table(os.Stdout, "Figure 9: distribution of CPU times",
		"cpu seconds (bucket edge)", "runs", []metrics.Series{series}); err != nil {
		return err
	}
	fmt.Printf("# tail summary: n=%d mean=%.1fs median=%.1fs p99=%.0fs max=%.0fs short(<10s)=%.1f%%\n",
		stats.N, stats.Mean, stats.Median, stats.P99, stats.Max, 100*stats.ShortFrac)
	return nil
}

func ablations(quick bool) error {
	machines, clients, per := 256, 8, 10
	scan := 100 * time.Microsecond
	if quick {
		machines, clients, per = 64, 4, 5
	}
	fm, err := experiments.AblationFirstMatch(machines, clients, per, scan)
	if err != nil {
		return err
	}
	if err := metrics.Table(os.Stdout, "Ablation: composite-query QoS (Section 6)",
		"clients", "mean response (s)", fm); err != nil {
		return err
	}

	sp, err := experiments.AblationStaticPools(machines, 4, scan)
	if err != nil {
		return err
	}
	if err := metrics.Table(os.Stdout, "Ablation: dynamic vs static pool creation (0=first query, 1=steady state)",
		"phase", "response (s)", sp); err != nil {
		return err
	}

	sel, err := experiments.AblationSelection(experiments.PaperMachines, 200)
	if err != nil {
		return err
	}
	return metrics.Table(os.Stdout, "Ablation: linear search vs presorted selection",
		"pool size", "ns per selection", sel)
}

// figPartition runs the domain-partitioning sweeps: per-node resident
// records under the rendezvous ownership split, cross-domain resolve p99
// with the directed hop against the first-win fan-out, and owned-domain
// allocate p99 on a partitioned node against the single-node baseline.
// The result's Check() is the regression bar — resident records tracking
// fleet/P at the largest node count, the directed hop >=3x faster than
// the fan-out at 4 peers, and partitioned allocation within 1.5x of
// single-node — so a CI smoke run of this figure is the partitioning
// regression gate.
func figPartition(quick bool) error {
	cfg := experiments.DefaultPartition()
	if quick {
		cfg.Fleets = []int{1000}
		cfg.PeerMachines = 1024
		cfg.ResolveOps = 400
		cfg.Clients = 4
		cfg.OpsPerClient = 10
	}
	res, err := experiments.PartitionScale(cfg)
	if err != nil {
		return err
	}
	if err := emit("partition", "Partitioning: resident records and allocate (fleet on x), cross-domain resolve (peers on x)",
		"fleet | peers", "records | p99 (s)", res.AllSeries()); err != nil {
		return err
	}
	return res.Check()
}
