package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
)

// Mark names the decorators emit (decor.go) and span names the ladder is
// built from. Three spans are derived from marks rather than timed around a
// call, because the calls happen inside core.Server where the benchmark has
// no seat: Service.Request runs from the translator call (one map lookup
// after its true start) to the reply's encode; querymgr.SubmitText from the
// same instant to the end of poolmgr.Resolve (one channel receive before its
// true end); wire.transit covers the socket between one side's encode and
// the other side's decode.
const (
	spanRequest  = "Client.Request"
	spanService  = "Service.Request"
	spanSubmit   = "querymgr.SubmitText"
	spanParse    = "query.Parse"
	spanResolve  = "poolmgr.Resolve"
	spanForward  = "stage.Forward"
	spanAllocate = "pool.Allocate"
	spanJournal  = "journal.append"
	spanEncode   = "wire.encode"
	spanDecode   = "wire.decode"
	spanTransit  = "wire.transit"
)

// ladder turns the marks of one allocate into its spans: the request at the
// root, every layer's span under the span that called it. It reports false
// when a mark is missing (a failed request leaves an incomplete set).
func ladder(cycle int, start, end int64, marks []mark) ([]span, bool) {
	find := func(name string) (mark, bool) {
		for _, m := range marks {
			if m.name == name {
				return m, true
			}
		}
		return mark{}, false
	}
	cenc, ok1 := find("client.encode")
	sdec, ok2 := find("server.decode")
	parse, ok3 := find(spanParse)
	res, ok4 := find(spanResolve)
	alloc, ok5 := find(spanAllocate)
	jrn, ok6 := find(spanJournal)
	senc, ok7 := find("server.encode")
	cdec, ok8 := find("client.decode")
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8) {
		return nil, false
	}
	var out []span
	add := func(name string, parent int, s, e int64) int {
		out = append(out, span{Name: name, Cycle: cycle, Parent: parent, Start: s, End: e})
		return len(out) - 1
	}
	root := add(spanRequest, -1, start, end)
	add(spanEncode, root, cenc.start, cenc.end)
	add(spanTransit, root, cenc.end, sdec.start)
	add(spanDecode, root, sdec.start, sdec.end)
	svc := add(spanService, root, parse.start, senc.start)
	sub := add(spanSubmit, svc, parse.start, res.end)
	add(spanParse, sub, parse.start, parse.end)
	resolve := add(spanResolve, sub, res.start, res.end)
	owner := resolve
	if fwd, ok := find(spanForward); ok {
		owner = add(spanForward, resolve, fwd.start, fwd.end)
	}
	// lease.Granted is stamped by the pool's own clock call; clip it to the
	// span that contains the allocate so a skewed stamp cannot go negative.
	a := add(spanAllocate, owner, max(alloc.start, out[owner].Start), alloc.end)
	add(spanJournal, a, jrn.start, jrn.end)
	add(spanEncode, root, senc.start, senc.end)
	add(spanTransit, root, senc.end, cdec.start)
	add(spanDecode, root, cdec.start, cdec.end)
	return out, true
}

// ladderStats accumulates, per span name, each cycle's self time (summed
// over the spans of that name in the cycle) and the root's duration.
type ladderStats struct {
	self  map[string][]float64 // us per cycle
	total []float64            // us per cycle
}

func newLadderStats() *ladderStats { return &ladderStats{self: map[string][]float64{}} }

func (ls *ladderStats) add(spans []span) {
	self := selfTimes(spans)
	per := map[string]int64{}
	for i, s := range spans {
		per[s.Name] += self[i]
	}
	for name, ns := range per {
		ls.self[name] = append(ls.self[name], float64(ns)/1e3)
	}
	ls.total = append(ls.total, float64(spans[0].dur())/1e3)
}

// table returns the median self time per span name and how much of the
// median end-to-end span the medians add up to.
func (ls *ladderStats) table() (rows map[string]float64, sumPct float64) {
	rows = map[string]float64{}
	sum := 0.0
	for name, xs := range ls.self {
		rows[name] = median(xs)
		sum += rows[name]
	}
	return rows, 100 * sum / median(ls.total)
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int                `json:"seed"`
	Cycles   int                `json:"cycles"`
	Kept     int                `json:"cyclesWithSpansKept"`
	SelfUS   map[string]float64 `json:"medianSelfUs"`
	SumPct   float64            `json:"selfSumPctOfRequest"`
	Metrics  map[string]float64 `json:"perLayer"`
	Spans    []span             `json:"spans"`
}

// keepCycles bounds the spans written out: every cycle feeds the medians,
// the first keepCycles cycles are kept span by span for inspection.
const keepCycles = 2000

// runTraced measures the per-layer metrics of one workload: a short
// end-to-end run for the load generator's own numbers, the traced
// in-process replica for the ladder, direct calls into each layer's public
// functions for the rest, and a kill -9 drill against a real durable daemon.
func runTraced(w *workload, seed int, seconds float64) (*resultLine, error) {
	r, err := newRunner(w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	disarm := guard(r, time.Duration(seconds*float64(time.Second))+120*time.Second)
	defer disarm()
	out := map[string]float64{}

	// (a) the real daemons, briefly: tails, lateness, sample counts.
	r.rounds = 1
	res, err := r.run(0.4 * seconds)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"loadgen.alloc_p50_ms", "loadgen.alloc_p99_ms", "loadgen.alloc_p999_ms", "loadgen.cycle_p50_ms",
		"loadgen.late_max_ms", "loadgen.late_p99_ms", "loadgen.samples"} {
		out[name] = res.loadgen[name]
	}
	line := &resultLine{Metrics: map[string]metricValue{}}
	for k := 0; k < nOps; k++ {
		line.Attempted += res.attempted[k]
		line.Failed += res.failed[k]
	}

	// (b) the replica.
	rp, err := newReplica(w, r.tmp)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	lc := &leaseClient{c: rp.client, queries: w.queries, next: seed, renew: w.renew, check: r.check}
	untraced := rp.cycles(lc, time.Duration(0.15*seconds*float64(time.Second)), nil, nil)
	wire0, j0, began := rp.wire.Snapshot(), rp.journalCounts(), time.Now()
	stats := newLadderStats()
	var kept []span
	rp.t.on.Store(true)
	traced := rp.cycles(lc, time.Duration(0.25*seconds*float64(time.Second)), stats, &kept)
	rp.t.on.Store(false)
	wire1, j1, took := rp.wire.Snapshot(), rp.journalCounts(), time.Since(began)
	line.Attempted += untraced.attempted + traced.attempted
	line.Failed += untraced.failed + traced.failed
	if len(stats.total) == 0 {
		return nil, fmt.Errorf("bench: workload %s: no traced cycle produced a complete ladder", w.name)
	}

	rows, sumPct := stats.table()
	out["loadgen.inproc_alloc_us"] = median(stats.total)
	out["loadgen.ladder_sum_pct"] = sumPct
	out["loadgen.trace_overhead_pct"] = 100 * (median(traced.alloc) - median(untraced.alloc)) / median(untraced.alloc)
	out["core.dispatch_self_us"] = rows[spanRequest]
	out["core.request_self_us"] = rows[spanService]
	out["querymgr.submit_self_us"] = rows[spanSubmit]
	out["query.parse_us"] = rows[spanParse]
	out["poolmgr.resolve_self_us"] = rows[spanResolve]
	out["pool.allocate_us"] = rows[spanAllocate]
	out["journal.append_us"] = rows[spanJournal]
	out["wire.encode_us"] = rows[spanEncode] / 2 // two frames per request
	out["wire.decode_us"] = rows[spanDecode] / 2
	out["wire.transit_us"] = rows[spanTransit]

	var frames, bytes int64
	for codec, c1 := range wire1 {
		c0 := wire0[codec]
		frames += c1.FramesOut + c1.FramesIn - c0.FramesOut - c0.FramesIn
		bytes += c1.BytesOut + c1.BytesIn - c0.BytesOut - c0.BytesIn
	}
	out["wire.frames_per_cycle"] = float64(frames) / float64(traced.cycles)
	out["wire.bytes_per_cycle"] = float64(bytes) / float64(traced.cycles)
	out["journal.bytes_per_cycle"] = float64(j1.Bytes-j0.Bytes) / float64(traced.cycles)
	out["journal.fsyncs_per_s"] = float64(j1.Fsyncs-j0.Fsyncs) / took.Seconds()
	fed := rp.nodes[0].fed.Snapshot()
	if fed.Directed > 0 {
		out["poolmgr.directed_per_grant"] = float64(fed.DirectedWins) / float64(fed.Directed)
	} else {
		out["poolmgr.directed_per_grant"] = 0
	}

	// (c) direct calls into the layers, on the replica's own state.
	if err := rp.micro(w, seed, out); err != nil {
		return nil, err
	}

	// (d) the restart drill, against a real durable daemon.
	if err := r.restartDrill(out); err != nil {
		return nil, err
	}

	faults := r.check.report()
	line.Correct = len(faults) == 0 && line.Failed == 0
	for _, m := range perLayer {
		v, ok := out[m.name]
		if !ok {
			return nil, fmt.Errorf("bench: per-layer metric %s was not measured", m.name)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	fmt.Printf("\n## %s traced (seed %d, %gs): ladder of one allocate, median self time per layer\n", w.name, seed, seconds)
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	for _, n := range names {
		fmt.Printf("  %-24s %10.2f us\n", n, rows[n])
	}
	fmt.Printf("  %-24s %10.2f us = %.1f%% of the median request (%0.2f us, %d cycles)\n",
		"sum of self times", sumPct/100*median(stats.total), sumPct, median(stats.total), len(stats.total))
	fmt.Printf("\n## %s per-layer metrics\n", w.name)
	for _, m := range perLayer {
		fmt.Printf("%-38s %14.4f %s\n", m.name, out[m.name], m.unit)
	}

	if err := writeTrace(w, seed, stats, rows, sumPct, out, kept); err != nil {
		return nil, err
	}
	if !line.Correct {
		return nil, fmt.Errorf("bench: workload %s traced: %d of %d operations failed, %d correctness faults:\n  %v\n%s",
			w.name, line.Failed, line.Attempted, len(faults), faults, r.stderrTails())
	}
	return line, nil
}

func writeTrace(w *workload, seed int, stats *ladderStats, rows map[string]float64, sumPct float64, out map[string]float64, kept []span) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kcycles := 0
	if len(kept) > 0 {
		kcycles = kept[len(kept)-1].Cycle + 1
	}
	raw, err := json.Marshal(traceFile{Workload: w.name, Seed: seed, Cycles: len(stats.total), Kept: kcycles,
		SelfUS: rows, SumPct: sumPct, Metrics: out, Spans: kept})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace_"+w.name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans of the first %d cycles written to %s\n", kcycles, path)
	return nil
}

// cycleCounts is what a single-threaded replica loop measured.
type cycleCounts struct {
	cycles, attempted, failed int
	alloc                     []float64 // us, Client.Request round trip
}

// cycles runs lease cycles one at a time for d. With stats set the tracer is
// expected to be on: the marks of each cycle's first request, the allocate,
// become a ladder.
func (rp *replica) cycles(lc *leaseClient, d time.Duration, stats *ladderStats, kept *[]span) cycleCounts {
	var cc cycleCounts
	s := &samples{}
	for end := time.Now().Add(d); time.Now().Before(end); cc.cycles++ {
		rp.t.collect()
		ref, before := time.Now(), len(s.alloc)
		lc.cycle(ref, s)
		marks := rp.t.collect()
		if len(s.alloc) == before {
			continue // the allocate failed; lc.cycle reported it
		}
		rtt := s.alloc[before] // ms
		cc.alloc = append(cc.alloc, rtt*1e3)
		if stats == nil {
			continue
		}
		start := rp.t.at(ref)
		if spans, ok := ladder(cc.cycles, start, start+int64(rtt*1e6), marks); ok {
			stats.add(spans)
			if cc.cycles < keepCycles {
				*kept = append(*kept, spans...)
			}
		}
	}
	cc.attempted, cc.failed = s.totals()
	return cc
}

// restartDrill boots a journaled daemon, gives its journal some history,
// kills it, and times the way back: exec to the first renewed lease, then
// the allocate latency of the recovered daemon.
func (r *runner) restartDrill(out map[string]float64) error {
	durable, err := workloadByName("lease_durable")
	if err != nil {
		return err
	}
	dr := *r // same binary, scratch directory and process bookkeeping
	dr.w, dr.check = durable, newOracle()
	s, err := dr.boot()
	r.site = s
	if err != nil {
		return err
	}
	defer s.stop(r.fleet)
	c, err := core.DialOpts(s.addr, netsim.Local(), core.DialConfig{})
	if err != nil {
		return s.daemons[0].failure("dial: " + err.Error())
	}
	defer c.Close()
	lc := &leaseClient{c: c, queries: durable.queries, next: r.seed, renew: true, check: dr.check}
	lc.closedLoop(time.Now().Add(time.Second))

	_, restartToRenew, err := dr.crashDrill(s, lc)
	if err != nil {
		return err
	}
	after := &samples{}
	for i := 0; i < 2000; i++ {
		lc.cycle(time.Now(), after)
	}
	if _, failed := after.totals(); failed > 0 || len(dr.check.report()) > 0 {
		return s.daemons[0].failure(fmt.Sprintf("restart drill: %v", dr.check.report()))
	}
	out["journal.restart_to_renew_ms"] = ms(restartToRenew)
	out["journal.post_restart_alloc_p50_ms"] = percentile(sortedCopy(after.alloc), 50)
	return nil
}
