package experiments

import (
	"fmt"
	"sync"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/monitor"
	"actyp/internal/registry"
)

// RefreshScaleConfig parameterizes the freshness scale experiment:
// allocate-latency p99 on one fleet-wide pool while the resource monitor
// sweeps the whole white pages as fast as it can. The sweeps reach the
// pool cache through the registry change stream in bounded increments, so
// the tail should stay flat as the fleet grows.
type RefreshScaleConfig struct {
	Sizes        []int // fleet sizes to sweep
	Clients      int   // concurrent closed-loop clients
	OpsPerClient int   // measured requests per client per point
}

// DefaultRefreshScale sweeps 1k/10k/100k machines under 8-way contention.
func DefaultRefreshScale() RefreshScaleConfig {
	return RefreshScaleConfig{
		Sizes:        []int{1000, 10000, 100000},
		Clients:      8,
		OpsPerClient: 150,
	}
}

// RefreshScale runs the sweep and returns one series, labelled "events":
// p99 seconds per Request+Release cycle at each fleet size, measured
// under sustained monitor sweeps.
func RefreshScale(cfg RefreshScaleConfig) ([]metrics.Series, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 150
	}
	s := metrics.Series{Label: "events"}
	for _, size := range cfg.Sizes {
		p99, err := refreshScalePoint(size, cfg)
		if err != nil {
			return nil, err
		}
		s.Add(float64(size), p99.Seconds())
	}
	return []metrics.Series{s}, nil
}

func refreshScalePoint(size int, cfg RefreshScaleConfig) (time.Duration, error) {
	const criteria = "punch.rsrc.arch = sun"
	db, err := newDB()
	if err != nil {
		return 0, err
	}
	if err := registry.HomogeneousFleetSpec(size).Populate(db, time.Now()); err != nil {
		return 0, err
	}
	svc, err := core.New(core.Options{DB: db, PoolEngine: PoolEngine()})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	// Warm the single fleet-wide pool so the sweep measures steady-state
	// allocation latency, not first-touch creation.
	if err := svc.Precreate(criteria); err != nil {
		return 0, err
	}

	// The monitor sweeps back to back: every pass samples the whole fleet
	// and lands it through the batched update path, which is the sustained
	// churn the change stream must absorb.
	mon := monitor.New(monitor.Config{DB: db, Sampler: monitor.NewSyntheticSampler(1)})
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mon.Sweep()
		}
	}()

	rec := metrics.NewRecorder()
	err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(client, iter int) error {
		g, err := svc.Request(criteria)
		if err != nil {
			return fmt.Errorf("size %d: %w", size, err)
		}
		return svc.Release(g)
	})
	close(stop)
	sweeps.Wait()
	if err != nil {
		return 0, err
	}
	return rec.Percentile(99), nil
}
