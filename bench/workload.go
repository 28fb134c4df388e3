package main

import "fmt"

// fleetSize is the synthetic fleet every daemon generates
// (registry.DefaultFleetSpec: arch cycles over 4 values, domain over 2).
const fleetSize = 10000

// workload is one traffic mix. Every workload runs the same phases (see
// run.go); they differ in which daemons serve it and what the clients ask.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	clients int     // lease connections, one closed/paced generator each
	rate    float64 // paced phase: lease cycles per second over all clients
	renew   bool    // cycle is allocate -> renew -> release (else allocate -> release)
	queries []string

	monitor    string  // -monitor sweep interval
	durable    bool    // journal on, crash drill after the timed phases
	xdomain    bool    // two partitioned daemons, every query takes the directed hop
	browseRate float64 // selects per second beside the paced lease cycles (0: none)
}

// archQueries name the four pools lease cycles rotate over on a single
// node: each is a quarter of the fleet.
var archQueries = []string{
	"punch.rsrc.arch = sun",
	"punch.rsrc.arch = hp",
	"punch.rsrc.arch = alpha",
	"punch.rsrc.arch = x86",
}

// remoteQueries pin domain purdue, which node nb owns, so node na answers
// none of them itself. purdue is the even half of the fleet: sun and alpha.
var remoteQueries = []string{
	"punch.rsrc.domain = purdue\npunch.rsrc.arch = sun",
	"punch.rsrc.domain = purdue\npunch.rsrc.arch = alpha",
}

// selectPreds are the browse predicates. None names arch or domain, so each
// matches far more than selectBatch records of either fleet half and every
// reply is a full batch, on a partitioned node too. Each matches three
// quarters of the fleet, because what a select costs follows what it matches:
// mixed with predicates that match a third (owner = ...), at 8 ms against
// 18 ms, the median sat on the boundary between the two kinds and moved by
// 20-36% from run to run.
var selectPreds = []string{
	"punch.rsrc.memory = >=256",
	"punch.rsrc.cpus = >=2",
	"punch.rsrc.speed = >=300",
}

// The paced rates are fixed numbers, about a third of the closed-loop rate
// the reference host (2 cores) reached when the benchmark was written. They
// stay the same on every commit: a faster daemon shows as lower latency and
// CPU per cycle at the same offered load, not as a moving target.
var workloads = []workload{
	{
		name:    "lease_local",
		why:     "production default, one daemon: wire, dispatch, querymgr, poolmgr and pool carry it; journal, route and stage idle",
		clients: 2, rate: 2000, renew: true, queries: archQueries, monitor: "1s",
	},
	{
		name:    "lease_durable",
		why:     "lease_local plus journal (fsync interval, snapshots) and a kill -9 drill: only the journal differs, so the gap is its price",
		clients: 2, rate: 2000, renew: true, queries: archQueries, monitor: "1s", durable: true,
	},
	{
		name:    "lease_xdomain",
		why:     "two partitioned daemons, every query pins the peer's domain: route, poolmgr directed hop and stage do the work",
		clients: 2, rate: 1000, renew: false, queries: remoteQueries, monitor: "1s", xdomain: true,
	},
	{
		name:    "lease_browse",
		why:     "lease cycles beside paced 64-record selects and 4x monitor sweeps: registry scans and big frames tax the lease path",
		clients: 1, rate: 1000, renew: true, queries: archQueries, monitor: "250ms", browseRate: 5,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// End-to-end metric names, in reporting order; BENCHMARK.json lists the
// same names with their bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cycles_per_s", "1/s"},
	{"closed_alloc_p50_ms", "ms"},
	{"alloc_slo_pct", "%"},
	{"cpu_us_per_cycle", "us"},
	{"peak_rss_mb", "MB"},
	{"select_p50_ms", "ms"},
}

// Per-layer metric names, in reporting order; BENCHMARK.json lists the same
// names. None is gated. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []struct{ name, unit string }{
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.transit_us", "us"},
	{"wire.rtt_ping_us", "us"},
	{"wire.bytes_per_cycle", "B"},
	{"wire.frames_per_cycle", "count"},
	{"wire.select_reply_bytes", "B"},
	{"core.dispatch_self_us", "us"},
	{"core.request_self_us", "us"},
	{"shadow.allocate_us", "us"},
	{"querymgr.submit_self_us", "us"},
	{"query.parse_us", "us"},
	{"query.compile_us", "us"},
	{"poolmgr.resolve_self_us", "us"},
	{"poolmgr.directed_per_grant", "ratio"},
	{"route.owner_ns", "ns"},
	{"stage.hop_us", "us"},
	{"pool.allocate_us", "us"},
	{"pool.renew_us", "us"},
	{"pool.release_us", "us"},
	{"pool.apply_us_per_event", "us"},
	{"monitor.sweep_ms", "ms"},
	{"registry.update_batch_us_per_machine", "us"},
	{"registry.select_us_per_record", "us"},
	{"registry.batch_bytes_per_record", "B"},
	{"journal.append_us", "us"},
	{"journal.bytes_per_cycle", "B"},
	{"journal.fsyncs_per_s", "1/s"},
	{"journal.snapshot_ms", "ms"},
	{"journal.replay_ms", "ms"},
	{"journal.restart_to_renew_ms", "ms"},
	{"journal.post_restart_alloc_p50_ms", "ms"},
	{"loadgen.alloc_p50_ms", "ms"},
	{"loadgen.alloc_p99_ms", "ms"},
	{"loadgen.alloc_p999_ms", "ms"},
	{"loadgen.cycle_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.inproc_alloc_us", "us"},
	{"loadgen.ladder_sum_pct", "%"},
	{"loadgen.trace_overhead_pct", "%"},
}
