// Package experiments implements the controlled experiments of Section 7.
// Each FigN function reproduces the setup behind the corresponding figure
// of the paper and returns the plotted series; cmd/actyp-bench prints them
// as text tables and bench_test.go exercises them under testing.B.
//
// The paper's testbed (12-processor AlphaServer + UltraSPARC clients, with
// one experiment spanning a Purdue-UPC transatlantic link) is replaced by
// one host with netsim latency injection, and the 2001-era linear-search
// cost is modelled by the pools' ScanCost knob. Absolute response times
// therefore differ from the paper's; the shapes — fewer seconds with more
// pools, linear growth with pool size, gains from splitting and
// replication — are what these drivers reproduce.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/workload"
)

// Defaults shared by the figure drivers. The paper's database holds 3,200
// machines; the drivers accept smaller fleets for quick runs.
const (
	PaperMachines   = 3200
	DefaultScanCost = 2 * time.Microsecond
)

// newService builds a service over a fresh homogeneous fleet, on the
// registry backend selected via UseRegistry.
func newService(machines int, scanCost time.Duration, seed int64) (*core.Service, error) {
	db, err := newDB()
	if err != nil {
		return nil, err
	}
	if err := registry.HomogeneousFleetSpec(machines).Populate(db, time.Now()); err != nil {
		return nil, err
	}
	return core.New(core.Options{DB: db, ScanCost: scanCost, Seed: seed, PoolEngine: PoolEngine()})
}

// closedLoop runs `clients` concurrent closed-loop clients, each executing
// `perClient` iterations of do, and records the latency of each iteration.
func closedLoop(clients, perClient int, rec *metrics.Recorder, do func(client, iter int) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				start := time.Now()
				if err := do(c, i); err != nil {
					errCh <- fmt.Errorf("client %d iter %d: %w", c, i, err)
					return
				}
				rec.Record(time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// Fig4Config parameterizes the LAN pool-count sweep.
type Fig4Config struct {
	Machines         int            // database size (paper: 3,200)
	Pools            []int          // pool counts to sweep (paper: 2..16)
	Clients          int            // concurrent closed-loop clients
	QueriesPerClient int            // measured queries per client per point
	ScanCost         time.Duration  // per-entry linear-search cost
	Profile          netsim.Profile // injected network (paper: LAN)
	Seed             int64
}

// DefaultFig4 mirrors the paper's setup at full scale.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Machines:         PaperMachines,
		Pools:            []int{2, 4, 6, 8, 10, 12, 14, 16},
		Clients:          32,
		QueriesPerClient: 10,
		ScanCost:         DefaultScanCost,
		Profile:          netsim.LAN(),
		Seed:             1,
	}
}

// Fig4 measures mean response time as a function of the number of pools in
// a LAN configuration: machines are striped uniformly across the pools and
// client queries are distributed randomly across pools.
func Fig4(cfg Fig4Config) (metrics.Series, error) {
	series := metrics.Series{Label: fmt.Sprintf("clients=%d", cfg.Clients)}
	for _, pools := range cfg.Pools {
		mean, err := poolSweepPoint(cfg.Machines, pools, cfg.Clients, cfg.QueriesPerClient, cfg.ScanCost, cfg.Profile, cfg.Seed)
		if err != nil {
			return series, err
		}
		series.Add(float64(pools), mean.Seconds())
	}
	return series, nil
}

// Fig5Config parameterizes the WAN pool-count sweep.
type Fig5Config struct {
	Machines         int
	Pools            []int
	ClientCounts     []int // one plotted series per count (paper: 8/16/32/64)
	QueriesPerClient int
	ScanCost         time.Duration
	Profile          netsim.Profile // paper: transatlantic WAN
	Seed             int64
}

// DefaultFig5 mirrors the paper's WAN experiment.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Machines:         PaperMachines,
		Pools:            []int{1, 2, 4, 8, 16},
		ClientCounts:     []int{8, 16, 32, 64},
		QueriesPerClient: 5,
		ScanCost:         DefaultScanCost,
		Profile:          netsim.WAN(),
		Seed:             1,
	}
}

// Fig5 is Fig4 across a wide-area network: multiple pools still help, but
// network latency bounds the improvement.
func Fig5(cfg Fig5Config) ([]metrics.Series, error) {
	var out []metrics.Series
	for _, clients := range cfg.ClientCounts {
		s := metrics.Series{Label: fmt.Sprintf("clients=%d", clients)}
		for _, pools := range cfg.Pools {
			mean, err := poolSweepPoint(cfg.Machines, pools, clients, cfg.QueriesPerClient, cfg.ScanCost, cfg.Profile, cfg.Seed)
			if err != nil {
				return out, err
			}
			s.Add(float64(pools), mean.Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}

// poolSweepPoint measures one (pools, clients) point: a fresh service with
// the machines striped across `pools` pools, served over TCP with the given
// network profile, hammered by closed-loop clients that pick pools at
// random.
func poolSweepPoint(machines, pools, clients, perClient int, scanCost time.Duration, profile netsim.Profile, seed int64) (time.Duration, error) {
	svc, err := newService(machines, scanCost, seed)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	if err := svc.StripePools(pools); err != nil {
		return 0, err
	}
	if err := svc.WarmPools(pools); err != nil {
		return 0, err
	}
	srv, err := core.Serve(svc, "127.0.0.1:0", profile)
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	conns := make([]*core.Client, clients)
	for i := range conns {
		c, err := core.Dial(srv.Addr(), profile)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		conns[i] = c
	}

	rec := metrics.NewRecorder()
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	err = closedLoop(clients, perClient, rec, func(client, iter int) error {
		rngMu.Lock()
		k := rng.Intn(pools)
		rngMu.Unlock()
		g, err := conns[client].Request(fmt.Sprintf("punch.rsrc.pool = %d", k))
		if err != nil {
			return err
		}
		return conns[client].Release(g)
	})
	if err != nil {
		return 0, err
	}
	return rec.Mean(), nil
}

// Fig6Config parameterizes the pool-size experiment.
type Fig6Config struct {
	PoolSizes        []int // one series per size (paper: up to 3,200)
	Clients          []int // x axis (paper: 1..70)
	QueriesPerClient int
	ScanCost         time.Duration
	Seed             int64
}

// DefaultFig6 mirrors the paper's single-pool bottleneck experiment.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		PoolSizes:        []int{800, 1600, 3200},
		Clients:          []int{1, 10, 20, 30, 40, 50, 60, 70},
		QueriesPerClient: 10,
		ScanCost:         DefaultScanCost,
		Seed:             1,
	}
}

// Fig6 measures response time as a function of pool size under continuous
// client load: all machines aggregate into one pool, so every query pays
// the full linear search and queries serialize on the pool — response time
// grows with both pool size and client count.
func Fig6(cfg Fig6Config) ([]metrics.Series, error) {
	var out []metrics.Series
	for _, size := range cfg.PoolSizes {
		s := metrics.Series{Label: fmt.Sprintf("pool=%d", size)}
		for _, clients := range cfg.Clients {
			svc, err := newService(size, cfg.ScanCost, cfg.Seed)
			if err != nil {
				return out, err
			}
			if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
				svc.Close()
				return out, err
			}
			rec := metrics.NewRecorder()
			err = closedLoop(clients, cfg.QueriesPerClient, rec, func(client, iter int) error {
				g, err := svc.Request("punch.rsrc.arch = sun")
				if err != nil {
					return err
				}
				return svc.Release(g)
			})
			svc.Close()
			if err != nil {
				return out, err
			}
			s.Add(float64(clients), rec.Mean().Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig7Config parameterizes the splitting experiment.
type Fig7Config struct {
	Machines         int   // the pool to split (paper: 3,200)
	Splits           []int // 1 = unsplit, then 2 and 4
	Clients          []int
	QueriesPerClient int
	ScanCost         time.Duration
	Seed             int64
}

// DefaultFig7 mirrors the paper's splitting experiment.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		Machines:         PaperMachines,
		Splits:           []int{1, 2, 4},
		Clients:          []int{10, 20, 30, 40, 50, 60, 70},
		QueriesPerClient: 10,
		ScanCost:         DefaultScanCost,
		Seed:             1,
	}
}

// Fig7 measures the effect of splitting a hot pool: the 3,200-machine pool
// is split into two pools of 1,600 and four pools of 800, whose searches
// proceed concurrently.
func Fig7(cfg Fig7Config) ([]metrics.Series, error) {
	var out []metrics.Series
	for _, split := range cfg.Splits {
		label := "unsplit"
		if split > 1 {
			label = fmt.Sprintf("split=%dx%d", split, cfg.Machines/split)
		}
		s := metrics.Series{Label: label}
		for _, clients := range cfg.Clients {
			svc, err := newService(cfg.Machines, cfg.ScanCost, cfg.Seed)
			if err != nil {
				return out, err
			}
			if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
				svc.Close()
				return out, err
			}
			if split > 1 {
				if err := svc.SplitPool("punch.rsrc.arch = sun", split); err != nil {
					svc.Close()
					return out, err
				}
			}
			rec := metrics.NewRecorder()
			err = closedLoop(clients, cfg.QueriesPerClient, rec, func(client, iter int) error {
				g, err := svc.Request("punch.rsrc.arch = sun")
				if err != nil {
					return err
				}
				return svc.Release(g)
			})
			svc.Close()
			if err != nil {
				return out, err
			}
			s.Add(float64(clients), rec.Mean().Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig8Config parameterizes the replication experiment.
type Fig8Config struct {
	Machines         int
	Replicas         []int // concurrent pool processes (paper: 1, 2, 4)
	Clients          []int
	QueriesPerClient int
	ScanCost         time.Duration
	Seed             int64
}

// DefaultFig8 mirrors the paper's replication experiment.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Machines:         PaperMachines,
		Replicas:         []int{1, 2, 4},
		Clients:          []int{10, 20, 30, 40, 50, 60, 70},
		QueriesPerClient: 10,
		ScanCost:         DefaultScanCost,
		Seed:             1,
	}
}

// Fig8 measures the effect of replicating a hot pool: replicas contain the
// same 3,200 machines and preserve scheduling integrity through an
// instance-specific bias, so the pool's throughput scales with the number
// of concurrent scheduling processes.
func Fig8(cfg Fig8Config) ([]metrics.Series, error) {
	var out []metrics.Series
	for _, replicas := range cfg.Replicas {
		s := metrics.Series{Label: fmt.Sprintf("processes=%d", replicas)}
		for _, clients := range cfg.Clients {
			svc, err := newService(cfg.Machines, cfg.ScanCost, cfg.Seed)
			if err != nil {
				return out, err
			}
			if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
				svc.Close()
				return out, err
			}
			if replicas > 1 {
				if err := svc.ReplicatePool("punch.rsrc.arch = sun", replicas); err != nil {
					svc.Close()
					return out, err
				}
			}
			rec := metrics.NewRecorder()
			err = closedLoop(clients, cfg.QueriesPerClient, rec, func(client, iter int) error {
				g, err := svc.Request("punch.rsrc.arch = sun")
				if err != nil {
					return err
				}
				return svc.Release(g)
			})
			svc.Close()
			if err != nil {
				return out, err
			}
			s.Add(float64(clients), rec.Mean().Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig9Config parameterizes the workload characterization.
type Fig9Config struct {
	Runs    int // paper: 236,222
	Buckets int // histogram resolution over [0, MaxCPU)
	MaxCPU  float64
	Seed    int64
}

// DefaultFig9 mirrors Figure 9's axes (truncated at 1,000 CPU seconds).
func DefaultFig9() Fig9Config {
	return Fig9Config{Runs: workload.PaperRunCount, Buckets: 100, MaxCPU: 1000, Seed: 1}
}

// Fig9 regenerates the CPU-time distribution of PUNCH runs from the fitted
// mixture model: a histogram over [0, MaxCPU) plus the summary statistics
// that characterize the tail the plot truncates.
func Fig9(cfg Fig9Config) (metrics.Series, workload.Stats, error) {
	if cfg.Runs <= 0 || cfg.Buckets <= 0 || cfg.MaxCPU <= 0 {
		return metrics.Series{}, workload.Stats{}, fmt.Errorf("experiments: bad fig9 config %+v", cfg)
	}
	model := workload.NewCPUTimeModel(cfg.Seed)
	samples := model.SampleN(cfg.Runs)
	hist, err := metrics.NewHistogram(0, cfg.MaxCPU, cfg.Buckets)
	if err != nil {
		return metrics.Series{}, workload.Stats{}, err
	}
	for _, v := range samples {
		if v < cfg.MaxCPU { // the figure truncates the axis; tail summarized separately
			hist.Observe(v)
		}
	}
	s := metrics.Series{Label: "runs"}
	for _, b := range hist.Buckets() {
		s.Add(b.Edge, float64(b.Count))
	}
	return s, workload.Summarize(samples), nil
}
