package experiments

// Federated resolution fast path (the PR's figure): two sweeps that stand
// the new machinery against the paper's baselines.
//
// Leg 1 — miss-resolve: a home pool manager with no local capacity
// delegates every query to P wire-connected peers, and only the LAST peer
// (worst-case placement) owns matching machines. The serial walk pays one
// full round trip per empty peer before reaching capacity; the first-win
// fan-out races all candidates, so its p99 tracks a single round trip.
// Swept over peer count and network profile (LAN, bandwidth-modeled WAN).
//
// Leg 2 — remote freshness: a consumer keeps a replica of a remote
// registry while the remote's monitor sweeps the fleet every millisecond,
// and allocates from a pool living on that replica. Watch mode feeds the
// pool through the pushed change stream (dispatcher + incremental Apply);
// poll mode is the old ladder — periodic full snapshot fetches plus timed
// stop-the-world pool rebuilds. Allocate p50/p99 and update-visibility lag
// are measured per mode across fleet sizes.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"actyp/internal/core"
	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/monitor"
	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/stage"
)

// FederationConfig parameterizes both legs.
type FederationConfig struct {
	// Leg 1: miss-resolve delegation.
	Peers        []int         // peer counts to sweep (capacity always at the last peer)
	PeerMachines int           // fleet size at the one peer that has capacity
	Clients      int           // concurrent closed-loop requesters at the home manager
	OpsPerClient int           // measured resolves per requester per point
	HedgeDelay   time.Duration // fan-out stagger (0 races the full width at once)
	Profiles     []WanProfile  // network legs (lan, wan)

	// Leg 2: remote freshness.
	FreshSizes   []int         // remote fleet sizes to sweep
	FreshClients int           // concurrent allocators on the replica pool
	FreshOps     int           // measured allocates per client per point
	PollInterval time.Duration // poll-mode fetch + rebuild cadence
	LagSamples   int           // update-visibility probes per point
	// FreshThink is untimed think time between allocates. It stretches the
	// measured window across many poll cycles: an unpaced loop of
	// microsecond allocates finishes inside a single refresh interval and
	// never samples the rebuild's shadow. Both modes pay identical pacing,
	// and the sleep sits outside the timed section.
	FreshThink time.Duration
}

// DefaultFederation gates the PR's acceptance numbers: 4 WAN peers for the
// delegation leg, 10k machines for the freshness leg.
func DefaultFederation() FederationConfig {
	return FederationConfig{
		Peers:        []int{1, 2, 4},
		PeerMachines: 64,
		Clients:      4,
		OpsPerClient: 8,
		HedgeDelay:   0,
		Profiles: []WanProfile{
			{Name: "lan", Profile: netsim.LAN()},
			{Name: "wan", Profile: netsim.WAN()},
		},
		FreshSizes:   []int{1000, 10000},
		FreshClients: 8,
		FreshOps:     150,
		PollInterval: 25 * time.Millisecond,
		LagSamples:   20,
		FreshThink:   time.Millisecond,
	}
}

// FederationResult is both sweeps' output. Miss series are labelled
// "<profile>/<serial|fanout>" with peer count on the x axis; Alloc and Lag
// series are labelled "<watch|poll>" with fleet size on the x axis. All
// y values are seconds.
type FederationResult struct {
	MissP50  []metrics.Series
	MissP99  []metrics.Series
	AllocP50 []metrics.Series
	AllocP99 []metrics.Series
	LagP99   []metrics.Series
}

// AllSeries flattens the result into one labelled set for BENCH emission.
func (r FederationResult) AllSeries() []metrics.Series {
	prefixed := func(prefix string, series []metrics.Series) []metrics.Series {
		out := make([]metrics.Series, len(series))
		for i, s := range series {
			out[i] = s
			out[i].Label = prefix + s.Label
		}
		return out
	}
	var out []metrics.Series
	out = append(out, prefixed("miss-p50 ", r.MissP50)...)
	out = append(out, prefixed("miss-p99 ", r.MissP99)...)
	out = append(out, prefixed("alloc-p50 ", r.AllocP50)...)
	out = append(out, prefixed("alloc-p99 ", r.AllocP99)...)
	out = append(out, prefixed("lag-p99 ", r.LagP99)...)
	return out
}

// Check asserts the PR's regression bars at each sweep's largest point:
// the fan-out must cut WAN miss-resolve p99 by at least 3x over the serial
// walk, and watch-fed remote allocation p99 must beat the poll-mode ladder
// by at least 5x.
func (r FederationResult) Check() error {
	serial := findSeries(r.MissP99, "wan/serial")
	fanout := findSeries(r.MissP99, "wan/fanout")
	if serial == nil || fanout == nil {
		return errors.New("federation: missing a wan miss-resolve series to assert")
	}
	i := len(serial.Points) - 1
	if i < 0 || i >= len(fanout.Points) {
		return errors.New("federation: wan miss-resolve series lengths diverge")
	}
	var missGain float64
	if fanout.Points[i].Y > 0 {
		missGain = serial.Points[i].Y / fanout.Points[i].Y
	}
	if missGain < 3 {
		return fmt.Errorf("federation: at %g wan peers, fan-out cut miss-resolve p99 only %.2fx (serial %.3fs vs fanout %.3fs, need >=3x)",
			serial.Points[i].X, missGain, serial.Points[i].Y, fanout.Points[i].Y)
	}

	watch := findSeries(r.AllocP99, "watch")
	poll := findSeries(r.AllocP99, "poll")
	if watch == nil || poll == nil {
		return errors.New("federation: missing a freshness series to assert")
	}
	j := len(poll.Points) - 1
	if j < 0 || j >= len(watch.Points) {
		return errors.New("federation: freshness series lengths diverge")
	}
	var freshGain float64
	if watch.Points[j].Y > 0 {
		freshGain = poll.Points[j].Y / watch.Points[j].Y
	}
	if freshGain < 5 {
		return fmt.Errorf("federation: at %g machines, watch beat poll remote-allocate p99 only %.2fx (poll %.4fs vs watch %.6fs, need >=5x)",
			poll.Points[j].X, freshGain, poll.Points[j].Y, watch.Points[j].Y)
	}
	return nil
}

func findSeries(series []metrics.Series, label string) *metrics.Series {
	for i := range series {
		if series[i].Label == label {
			return &series[i]
		}
	}
	return nil
}

// FederationScale runs both sweeps.
func FederationScale(cfg FederationConfig) (FederationResult, error) {
	var res FederationResult
	if len(cfg.Peers) == 0 {
		cfg = DefaultFederation()
	}
	for _, prof := range cfg.Profiles {
		for _, mode := range []string{"serial", "fanout"} {
			p50s := metrics.Series{Label: prof.Name + "/" + mode}
			p99s := metrics.Series{Label: prof.Name + "/" + mode}
			for _, peers := range cfg.Peers {
				p50, p99, err := federationMissPoint(cfg, prof.Profile, peers, mode == "fanout")
				if err != nil {
					return res, fmt.Errorf("federation: %s/%s peers %d: %w", prof.Name, mode, peers, err)
				}
				p50s.Add(float64(peers), p50.Seconds())
				p99s.Add(float64(peers), p99.Seconds())
			}
			res.MissP50 = append(res.MissP50, p50s)
			res.MissP99 = append(res.MissP99, p99s)
		}
	}
	for _, mode := range []string{"watch", "poll"} {
		a50 := metrics.Series{Label: mode}
		a99 := metrics.Series{Label: mode}
		lag := metrics.Series{Label: mode}
		for _, size := range cfg.FreshSizes {
			p50, p99, lag99, err := federationFreshPoint(cfg, size, mode == "watch")
			if err != nil {
				return res, fmt.Errorf("federation: freshness %s size %d: %w", mode, size, err)
			}
			a50.Add(float64(size), p50.Seconds())
			a99.Add(float64(size), p99.Seconds())
			lag.Add(float64(size), lag99.Seconds())
		}
		res.AllocP50 = append(res.AllocP50, a50)
		res.AllocP99 = append(res.AllocP99, a99)
		res.LagP99 = append(res.LagP99, lag)
	}
	return res, nil
}

// federationMissPoint measures one (profile, mode, peers) point: resolve
// p50/p99 at the home manager, with every resolve missing locally and the
// only capacity sitting behind the last peer's wire server.
func federationMissPoint(cfg FederationConfig, profile netsim.Profile, peers int, fanout bool) (p50, p99 time.Duration, err error) {
	const criteria = "punch.rsrc.arch = sun"
	q, err := query.ParseBasic(criteria)
	if err != nil {
		return 0, 0, err
	}

	// Peer managers: all empty but the last, each behind its own stage
	// server on the profiled network.
	var servers []*stage.Server
	var remotes []*stage.Remote
	defer func() {
		for _, r := range remotes {
			_ = r.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}()
	var lastMgr *poolmgr.Manager
	var lastFactory *poolmgr.LocalFactory
	homeDir := directory.New()
	for i := 0; i < peers; i++ {
		pcfg := poolmgr.Config{Name: fmt.Sprintf("pm-peer-%d", i), Dir: directory.New()}
		if i == peers-1 {
			db, err := newDB()
			if err != nil {
				return 0, 0, err
			}
			if err := registry.HomogeneousFleetSpec(cfg.PeerMachines).Populate(db, time.Now()); err != nil {
				return 0, 0, err
			}
			lastFactory = &poolmgr.LocalFactory{DB: db}
			pcfg.Factory = lastFactory
		}
		m, err := poolmgr.New(pcfg)
		if err != nil {
			return 0, 0, err
		}
		if i == peers-1 {
			lastMgr = m
		}
		srv, err := stage.Serve(m, "127.0.0.1:0", profile)
		if err != nil {
			return 0, 0, err
		}
		servers = append(servers, srv)
		remote, err := stage.DialRemote(srv.Addr(), profile, 0)
		if err != nil {
			return 0, 0, err
		}
		remotes = append(remotes, remote)
		homeDir.AddPeer(remote)
	}
	defer lastFactory.CloseAll()

	homeCfg := poolmgr.Config{Name: "pm-home", Dir: homeDir, HedgeDelay: cfg.HedgeDelay}
	if fanout {
		homeCfg.Fanout = peers
	}
	home, err := poolmgr.New(homeCfg)
	if err != nil {
		return 0, 0, err
	}

	// Warm the peer's pool so the sweep measures steady-state delegation,
	// not first-touch pool creation.
	lease, err := home.Resolve(q)
	if err != nil {
		return 0, 0, fmt.Errorf("warm resolve: %w", err)
	}
	if err := lastMgr.Release(lease); err != nil {
		return 0, 0, err
	}

	// Closed loop; only the resolve is timed — the release goes straight to
	// the owning manager so both modes pay identical untimed cleanup.
	rec := metrics.NewRecorder()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.OpsPerClient; i++ {
				start := time.Now()
				lease, err := home.Resolve(q)
				if err != nil {
					errCh <- err
					return
				}
				rec.Record(time.Since(start))
				if err := lastMgr.Release(lease); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return 0, 0, err
	}
	return rec.Percentile(50), rec.Percentile(99), nil
}

// freshSweepEvery paces the freshness leg's remote monitor, the same in
// watch and poll mode. An unpaced sweep loop makes the leg measure how
// much CPU the monitor's events leave the clients, which moves with what a
// publish costs rather than with freshness.
const freshSweepEvery = time.Millisecond

// federationFreshPoint measures one (mode, size) freshness point: allocate
// p50/p99 on a pool living on a wire-fed replica, plus update-visibility
// lag p99, while the remote monitor sweeps its fleet every
// freshSweepEvery.
func federationFreshPoint(cfg FederationConfig, size int, watch bool) (p50, p99, lag99 time.Duration, err error) {
	const criteria = "punch.rsrc.arch = sun"
	q, err := query.ParseBasic(criteria)
	if err != nil {
		return 0, 0, 0, err
	}
	db, err := newDB()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := registry.HomogeneousFleetSpec(size).Populate(db, time.Now()); err != nil {
		return 0, 0, 0, err
	}
	svc, err := core.New(core.Options{DB: db, PoolEngine: PoolEngine()})
	if err != nil {
		return 0, 0, 0, err
	}
	defer svc.Close()
	srv, err := core.Serve(svc, "127.0.0.1:0", netsim.Local())
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()
	cli, err := core.Dial(srv.Addr(), netsim.Local())
	if err != nil {
		return 0, 0, 0, err
	}
	defer cli.Close()

	replica := registry.NewDB()
	w, err := registry.StartRemoteWatch(registry.RemoteWatchConfig{
		Transport:    cli,
		Replica:      replica,
		Ring:         1 << 16,
		PollInterval: cfg.PollInterval,
		ForcePoll:    !watch,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		return 0, 0, 0, err
	}

	pcfg := pool.Config{Name: query.Name(q), DB: replica, Exclusive: false, Engine: PoolEngine()}
	var disp *pool.Dispatcher
	if watch {
		disp = pool.NewDispatcher(replica, 0)
		disp.Start()
		defer disp.Stop()
		pcfg.Events = disp
	}
	p, err := pool.New(pcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer p.Close()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	// Poll mode's freshness floor: timed stop-the-world full rebuilds of
	// the pool cache (the replica itself is refreshed by the watcher's
	// snapshot fetches on the same cadence).
	if !watch {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(cfg.PollInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					p.Refresh()
				}
			}
		}()
	}
	// The remote monitor's churn, which both freshness modes must absorb
	// across the wire.
	mon := monitor.New(monitor.Config{DB: db, Sampler: monitor.NewSyntheticSampler(1)})
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(freshSweepEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				mon.Sweep()
			}
		}
	}()

	// Lag probes: stamp a param on the remote (params are outside the
	// monitor's sweep, so the stamp survives until it propagates) and time
	// its visibility in the replica.
	lagRec := metrics.NewRecorder()
	sentinel := db.Names()[0]
	lagErr := make(chan error, 1)
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; i < cfg.LagSamples; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stamp := fmt.Sprintf("lag-%d", i)
			start := time.Now()
			if err := db.SetParam(sentinel, "lagstamp", query.StrAttr(stamp)); err != nil {
				lagErr <- err
				return
			}
			for {
				if m, err := replica.Get(sentinel); err == nil {
					if got, _ := m.Policy.Params.Get("lagstamp"); got.Str == stamp {
						break
					}
				}
				if time.Since(start) > 30*time.Second {
					lagErr <- fmt.Errorf("lag probe %d never became visible", i)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			lagRec.Record(time.Since(start))
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rec := metrics.NewRecorder()
	var loop sync.WaitGroup
	errCh := make(chan error, cfg.FreshClients)
	for c := 0; c < cfg.FreshClients; c++ {
		loop.Add(1)
		go func() {
			defer loop.Done()
			for i := 0; i < cfg.FreshOps; i++ {
				start := time.Now()
				lease, aerr := p.Allocate(q)
				if aerr == nil {
					aerr = p.Release(lease.ID)
				}
				if aerr != nil {
					errCh <- aerr
					return
				}
				rec.Record(time.Since(start))
				if cfg.FreshThink > 0 {
					time.Sleep(cfg.FreshThink)
				}
			}
		}()
	}
	loop.Wait()
	close(errCh)
	err = <-errCh
	close(stop)
	bg.Wait()
	if err != nil {
		return 0, 0, 0, err
	}
	select {
	case err := <-lagErr:
		return 0, 0, 0, err
	default:
	}
	return rec.Percentile(50), rec.Percentile(99), lagRec.Percentile(99), nil
}
