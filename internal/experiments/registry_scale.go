package experiments

import (
	"fmt"
	"sync"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// Registry backend, pool engine, and wire codec selection shared by every
// experiment driver, settable from actyp-bench's -registry-backend /
// -registry-shards / -pool-engine / -wire-codec flags.
var (
	regMu           sync.Mutex
	registryBackend = registry.BackendSharded
	registryShards  = 0
	poolEngine      = ""
	wireCodecs      []wire.Codec
)

// UseRegistry selects the white-pages backend the experiment drivers
// build. It validates the kind eagerly so flag errors surface at startup.
func UseRegistry(kind string, shards int) error {
	if _, err := registry.OpenBackend(kind, shards); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if kind != "" {
		registryBackend = kind
	}
	registryShards = shards
	return nil
}

// UsePoolEngine selects the pool allocation engine the experiment drivers
// configure. Note the figures that model the 2001-era linear search with
// a positive ScanCost stay on the oracle engine regardless — that is the
// behaviour under study (see pool.Config.ScanCost).
func UsePoolEngine(kind string) error {
	if err := pool.ValidateEngine(kind); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	poolEngine = kind
	return nil
}

// PoolEngine returns the configured pool engine kind ("" = default).
func PoolEngine() string {
	regMu.Lock()
	defer regMu.Unlock()
	return poolEngine
}

// UseWireCodec pins the wire-codec preference the wire-speaking experiment
// drivers (transport) negotiate with; "" or "auto" keeps the default. The
// codec figure ignores it — comparing codecs is that figure's job.
func UseWireCodec(spec string) error {
	codecs, err := wire.ParseCodecs(spec)
	if err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	wireCodecs = codecs
	return nil
}

// WireCodecs returns the configured codec preference (nil = default).
func WireCodecs() []wire.Codec {
	regMu.Lock()
	defer regMu.Unlock()
	return wireCodecs
}

// newDB builds an empty white-pages database on the selected backend.
func newDB() (*registry.DB, error) {
	regMu.Lock()
	kind, shards := registryBackend, registryShards
	regMu.Unlock()
	b, err := registry.OpenBackend(kind, shards)
	if err != nil {
		return nil, err
	}
	return registry.NewDBWith(b), nil
}

// StripePoolParam assigns every machine a "pool" parameter in [0, stripes)
// by name order — the Figures 4/5 striping, shared by the registry scale
// sweep and the root BenchmarkRegistry* benchmarks so both measure the
// same workload.
func StripePoolParam(db *registry.DB, stripes int) error {
	if stripes <= 0 {
		return fmt.Errorf("experiments: stripe count must be positive, got %d", stripes)
	}
	for i, name := range db.Names() {
		if err := db.SetParam(name, "pool", query.NumAttr(float64(i%stripes))); err != nil {
			return err
		}
	}
	return nil
}

// RegistryScaleConfig parameterizes the registry scale experiment: the
// white-pages hot path (striped Select plus the Section 5.2.3 Take
// protocol) measured against fleet size, per backend.
type RegistryScaleConfig struct {
	Sizes        []int    // fleet sizes to sweep
	Backends     []string // backend kinds to compare
	Shards       int      // shard count for the sharded backend (0: auto)
	Clients      int      // concurrent closed-loop clients
	OpsPerClient int      // measured operations per client per point
	TakeLimit    int      // machines claimed per Take
	Stripes      int      // distinct "pool" parameter values
}

// DefaultRegistryScale sweeps 1k/10k/100k machines on both backends.
func DefaultRegistryScale() RegistryScaleConfig {
	return RegistryScaleConfig{
		Sizes:        []int{1000, 10000, 100000},
		Backends:     []string{registry.BackendLocked, registry.BackendSharded},
		Clients:      8,
		OpsPerClient: 40,
		TakeLimit:    8,
		Stripes:      64,
	}
}

// RegistryScale runs the sweep and returns one series per backend: mean
// seconds per Select+Take+Release cycle at each fleet size. A zero Shards
// inherits the count configured via UseRegistry (the -registry-shards
// flag), which itself defaults to auto.
func RegistryScale(cfg RegistryScaleConfig) ([]metrics.Series, error) {
	if cfg.TakeLimit <= 0 {
		cfg.TakeLimit = 8
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 64
	}
	if cfg.Shards == 0 {
		regMu.Lock()
		cfg.Shards = registryShards
		regMu.Unlock()
	}
	var out []metrics.Series
	for _, kind := range cfg.Backends {
		s := metrics.Series{Label: kind}
		for _, size := range cfg.Sizes {
			backend, err := registry.OpenBackend(kind, cfg.Shards)
			if err != nil {
				return out, err
			}
			db := registry.NewDBWith(backend)
			if err := registry.DefaultFleetSpec(size).Populate(db, time.Now()); err != nil {
				return out, err
			}
			if err := StripePoolParam(db, cfg.Stripes); err != nil {
				return out, err
			}
			rec := metrics.NewRecorder()
			err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(client, iter int) error {
				k := (client*cfg.OpsPerClient + iter) % cfg.Stripes
				q := query.New().Set("punch.rsrc.pool", query.EqNum(float64(k)))
				if got := db.Select(q); len(got) == 0 {
					return fmt.Errorf("stripe %d selected no machines", k)
				}
				inst := fmt.Sprintf("scale-pool-%d", client)
				taken := db.Take(q, inst, cfg.TakeLimit)
				if len(taken) == 0 {
					// Another client may hold the whole stripe; that is
					// the protocol working, not an error.
					return nil
				}
				names := make([]string, len(taken))
				for j, m := range taken {
					names[j] = m.Static.Name
				}
				if rel := db.Release(inst, names...); rel != len(names) {
					return fmt.Errorf("released %d of %d", rel, len(names))
				}
				return nil
			})
			if err != nil {
				return out, err
			}
			s.Add(float64(size), rec.Mean().Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}
