package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/schedule"
	"actyp/internal/wire"
)

// Overload survival: the paper's yellow-pages daemon serves two very
// different request classes over the same connections — cheap control
// frames (pings, lease renewals) that keep the fleet's leases alive, and
// bulk queries that each pay a full pool scan. Under a query flood a
// strictly-FIFO dispatch window queues the pings behind seconds of scan
// work, so transient overload turns into mass lease expiry. This
// experiment drives one shared connection with both classes at growing
// offered load and compares FIFO dispatch against the overload-control
// path (priority lanes + deadline-aware shedding): control-plane p99
// should stay within a small multiple of its uncontended value while
// excess bulk work is shed with Busy instead of queued to death.

// OverloadConfig parameterizes the overload sweep. Offered load is swept
// as a multiplier: each load unit adds BulkPerLoad closed-loop bulk
// flooders, while the control-plane population stays fixed.
type OverloadConfig struct {
	Machines       int           // fleet size; with ScanCost this sets the per-query cost
	Loads          []int         // offered-load multipliers (x axis)
	BulkPerLoad    int           // bulk flooders added per load unit
	ControlClients int           // concurrent control-plane pingers (fixed across loads)
	Window         int           // per-connection in-flight window
	QueueCap       int           // per-lane queue bound in lanes mode
	ScanCost       time.Duration // per-entry linear-search cost (serializes the pool)
	Duration       time.Duration // measured wall time per point
	Profile        netsim.Profile
	Weights        schedule.LaneWeights
	Seed           int64
}

// DefaultOverload saturates a 10k-machine fleet: one query costs
// Machines×ScanCost ≈ 20ms of serialized scan work, so a handful of bulk
// flooders already saturates the daemon and every added load unit only
// deepens the queue.
func DefaultOverload() OverloadConfig {
	return OverloadConfig{
		Machines:       10000,
		Loads:          []int{1, 2, 5, 10},
		BulkPerLoad:    6,
		ControlClients: 4,
		Window:         4,
		QueueCap:       16,
		ScanCost:       DefaultScanCost,
		Duration:       1500 * time.Millisecond,
		Profile:        netsim.LAN(),
		Weights:        schedule.DefaultLaneWeights(),
		Seed:           1,
	}
}

// QueryCost is the modelled cost of one bulk query: a full linear scan of
// the fleet on the serialized pool.
func (cfg OverloadConfig) QueryCost() time.Duration {
	return time.Duration(cfg.Machines) * cfg.ScanCost
}

// OverloadResult is the sweep's output: one series per dispatch mode
// ("fifo" is the pre-overload-control contrast, "lanes" the controlled
// path) for control-plane p99, bulk goodput, and client-observed sheds,
// plus the lanes-mode server-side bulk counters per load point.
type OverloadResult struct {
	ControlP99 []metrics.Series // control ping p99 (ms) vs load multiplier
	Goodput    []metrics.Series // completed bulk ops/s vs load multiplier
	Shed       []metrics.Series // client-observed bulk rejects/s vs load multiplier
	BulkCounts []metrics.OverloadCounts
	QueryCost  time.Duration
}

// Check asserts the figure's regression bar: in lanes mode the
// control-plane p99 at the highest offered load stays within 5x of
// max(its 1x value, a floor of one query cost plus scheduling slack) —
// i.e. priority dispatch keeps pings behind at most a worker's residual
// scan, not behind the bulk queue — and the server actually shed bulk
// work with Busy at the highest load (the load was a real overload).
// Only the lanes series is asserted; fifo is the contrast.
func (r OverloadResult) Check() error {
	var lanes *metrics.Series
	for i := range r.ControlP99 {
		if r.ControlP99[i].Label == "lanes" {
			lanes = &r.ControlP99[i]
		}
	}
	if lanes == nil || len(lanes.Points) < 2 {
		return errors.New("overload: no lanes control-p99 series to assert")
	}
	first, last := lanes.Points[0], lanes.Points[len(lanes.Points)-1]
	floor := float64((r.QueryCost + 10*time.Millisecond).Milliseconds())
	base := first.Y
	if base < floor {
		base = floor
	}
	if allowed := 5 * base; last.Y > allowed {
		return fmt.Errorf("overload: lanes control p99 %.1fms at %gx exceeds %.1fms = 5 x max(p99 %.1fms at %gx, floor %.1fms)",
			last.Y, last.X, allowed, first.Y, first.X, floor)
	}
	if n := len(r.BulkCounts); n > 0 {
		if c := r.BulkCounts[n-1]; c.Shed+c.Expired == 0 {
			return fmt.Errorf("overload: lanes mode shed no bulk work at %gx — offered load never exceeded capacity", last.X)
		}
	}
	return nil
}

// OverloadScale runs the sweep: for each dispatch mode and load
// multiplier, a fresh service is hammered through ONE shared connection
// by a fixed control-plane population and load×BulkPerLoad bulk
// flooders, and the control ping p99, bulk goodput, and shed rate are
// measured over a fixed wall-time window.
func OverloadScale(cfg OverloadConfig) (OverloadResult, error) {
	if cfg.Machines <= 0 {
		cfg = DefaultOverload()
	}
	res := OverloadResult{QueryCost: cfg.QueryCost()}
	for _, mode := range []string{"fifo", "lanes"} {
		p99 := metrics.Series{Label: mode}
		good := metrics.Series{Label: mode}
		shed := metrics.Series{Label: mode}
		for _, load := range cfg.Loads {
			sample, err := overloadPoint(cfg, mode, load)
			if err != nil {
				return res, err
			}
			p99.Add(float64(load), float64(sample.p99.Milliseconds()))
			good.Add(float64(load), sample.goodPerSec)
			shed.Add(float64(load), sample.shedPerSec)
			if mode == "lanes" {
				res.BulkCounts = append(res.BulkCounts, sample.bulk)
			}
		}
		res.ControlP99 = append(res.ControlP99, p99)
		res.Goodput = append(res.Goodput, good)
		res.Shed = append(res.Shed, shed)
	}
	return res, nil
}

type overloadSample struct {
	p99        time.Duration
	goodPerSec float64
	shedPerSec float64
	bulk       metrics.OverloadCounts
}

// overloadPoint measures one (mode, load) point. Control pingers and bulk
// flooders share one connection — per-connection lanes are the mechanism
// under test, so the classes must contend for the same dispatch window.
func overloadPoint(cfg OverloadConfig, mode string, load int) (overloadSample, error) {
	const criteria = "punch.rsrc.arch = sun"
	var out overloadSample
	svc, err := newService(cfg.Machines, cfg.ScanCost, cfg.Seed)
	if err != nil {
		return out, err
	}
	defer svc.Close()
	if err := svc.Precreate(criteria); err != nil {
		return out, err
	}

	serveCfg := wire.ServeOptions{Window: cfg.Window, Codecs: WireCodecs()}
	var stats *metrics.OverloadStats
	if mode == "lanes" {
		stats = metrics.NewOverloadStats()
		serveCfg.Overload = &wire.OverloadPolicy{
			LeaseWeight: cfg.Weights.Lease,
			BulkWeight:  cfg.Weights.Bulk,
			QueueCap:    cfg.QueueCap,
			Stats:       stats,
		}
	}
	srv, err := core.ServeOpts(svc, "127.0.0.1:0", cfg.Profile, serveCfg)
	if err != nil {
		return out, err
	}
	defer srv.Close()
	cli, err := core.DialOpts(srv.Addr(), cfg.Profile, core.DialConfig{Codecs: WireCodecs(), From: "bench"})
	if err != nil {
		return out, err
	}
	defer cli.Close()

	// Bulk calls carry a deadline of a few query costs: long enough to
	// succeed on a lightly loaded daemon, short enough that deep-queued
	// work expires and exercises the deadline shed.
	bulkTimeout := 4*cfg.QueryCost() + 50*time.Millisecond
	deadline := time.Now().Add(cfg.Duration)
	rec := metrics.NewRecorder()
	var good, shedN atomic.Int64
	var wg sync.WaitGroup

	for c := 0; c < cfg.ControlClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := cli.PingContext(ctx)
				cancel()
				if err != nil {
					return // keep the samples gathered so far; fifo mode may starve pings entirely
				}
				rec.Record(time.Since(start))
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	for f := 0; f < load*cfg.BulkPerLoad; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), bulkTimeout)
				g, err := cli.RequestContext(ctx, "", criteria)
				cancel()
				if err == nil {
					good.Add(1)
					_ = cli.Release(g)
					continue
				}
				shedN.Add(1)
				wait := 2 * time.Millisecond
				var busy *wire.BusyError
				if errors.As(err, &busy) && busy.RetryAfter > 0 && busy.RetryAfter < 50*time.Millisecond {
					wait = busy.RetryAfter
				}
				time.Sleep(wait)
			}
		}()
	}
	wg.Wait()

	secs := cfg.Duration.Seconds()
	out.p99 = rec.Percentile(99)
	out.goodPerSec = float64(good.Load()) / secs
	out.shedPerSec = float64(shedN.Load()) / secs
	if stats != nil {
		out.bulk = stats.Snapshot()[metrics.ClassBulk]
	}
	if rec.Count() == 0 {
		return out, fmt.Errorf("overload: %s mode at %dx recorded no control pings", mode, load)
	}
	return out, nil
}
