package main

import (
	"fmt"
	"os"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// A replica is the workload's daemons rebuilt inside the benchmark process
// from the same public constructors cmd/actypd/main.go calls, in the same
// order, with the decorators of decor.go at the interfaces. It exists for
// the traced run only: one process means one clock, so a mark taken in the
// "server" and one taken in the "client" belong to the same timeline.

// node is one in-process actypd.
type node struct {
	name   string
	db     *registry.DB
	svc    *core.Service
	srv    *core.Server
	stage  *stage.Server
	jnl    *journal.Journal
	jstats *metrics.JournalStats
	jdir   string
	fed    *metrics.FederationStats
	peers  []*stage.Remote
}

func (n *node) close() {
	if n.stage != nil {
		n.stage.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	// Journal before service, as the daemon does: the service's own
	// teardown releases every claim and must not be journaled.
	if n.jnl != nil {
		_ = n.jnl.Close() // the journal directory is scratch
	}
	if n.svc != nil {
		n.svc.Close()
	}
	for _, p := range n.peers {
		_ = p.Close() // connection teardown
	}
}

type nodeConfig struct {
	name       string        // -node-name ("" as on a stand-alone daemon)
	ownDomains string        // -own-domains
	peerStages []string      // -peer-addrs
	journalDir string        // -journal-dir
	monitor    time.Duration // -monitor
}

// newNode follows cmd/actypd's run(): peers dialed first, ownership table,
// journal open, population, pruning, core.New, peers added, journal attach,
// listeners.
func newNode(cfg nodeConfig, t *tracer) (n *node, err error) {
	n = &node{name: cfg.name, jdir: cfg.journalDir, fed: metrics.NewFederationStats()}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	for _, addr := range cfg.peerStages {
		r, err := stage.DialRemote(addr, netsim.Local(), 0)
		if err != nil {
			return n, fmt.Errorf("bench: replica %s: peer %s: %w", cfg.name, addr, err)
		}
		n.peers = append(n.peers, r)
	}
	nodeName := cfg.name
	var routes *route.Table
	if cfg.ownDomains != "" {
		routeNode := nodeName + "-0"
		static, err := route.ParseStatic(routeNode, cfg.ownDomains)
		if err != nil {
			return n, err
		}
		nodes := []string{routeNode}
		for _, r := range n.peers {
			nodes = append(nodes, r.Name())
		}
		routes = route.New(routeNode)
		routes.Reload(static, nodes)
	}
	if cfg.journalDir != "" {
		n.jstats = metrics.NewJournalStats()
		n.jnl, _, err = journal.Open(journal.Config{Dir: cfg.journalDir, Fsync: journal.FsyncInterval, Stats: n.jstats})
		if err != nil {
			return n, err
		}
	}
	n.db = registry.NewDBWith(registry.NewSharded(0))
	if err := registry.DefaultFleetSpec(fleetSize).Populate(n.db, time.Now()); err != nil {
		return n, err
	}
	if routes != nil {
		var foreign []string
		n.db.Walk(func(m *registry.Machine) bool {
			if !routes.KeepMachine(m) {
				foreign = append(foreign, m.Static.Name)
			}
			return true
		})
		for _, name := range foreign {
			if err := n.db.Remove(name); err != nil {
				return n, err
			}
		}
	}

	// The selector core.New would have built, behind the timing wrapper.
	var sel querymgr.Selector = querymgr.NewRandomSelector(1)
	if routes != nil {
		sel = querymgr.NewDomainSelector(sel, 1)
	}
	var leaseLog pool.LeaseLog
	if n.jnl != nil {
		leaseLog = n.jnl
	}
	opts := core.Options{
		DB:              n.db,
		NodeName:        nodeName,
		MonitorInterval: cfg.monitor,
		LeaseTTL:        30 * time.Second,
		FederationStats: n.fed,
		Routes:          routes,
		Selector:        &tracedSelector{inner: sel, t: t},
		Translators:     map[string]querymgr.Translator{"native": tracedTranslator{t}},
		LeaseLog:        tracedLeaseLog{inner: leaseLog, t: t},
	}
	if n.jnl != nil {
		opts.DelegationLog = n.jnl
	}
	n.svc, err = core.New(opts)
	if err != nil {
		return n, err
	}
	for _, r := range n.peers {
		n.svc.Directory().AddPeer(tracedForwarder{Remote: r, t: t})
	}
	if n.jnl != nil {
		source := func(limit, offset int) ([]*registry.Machine, int, error) {
			return n.svc.SelectMachines("", limit, offset)
		}
		if err := n.jnl.Attach(n.db, source, 3*time.Second); err != nil {
			return n, err
		}
	}
	// -lane-weights lease=4,bulk=1, the daemon's default overload policy.
	overload := &wire.OverloadPolicy{LeaseWeight: 4, BulkWeight: 1, Stats: metrics.NewOverloadStats()}
	n.srv, err = core.ServeOpts(n.svc, "127.0.0.1:0", netsim.Local(), core.ServeConfig{
		Codecs: tracedCodecs(t, "server"), Overload: overload, Stats: &metrics.WireStats{},
	})
	if err != nil {
		return n, err
	}
	n.stage, err = stage.ServeOpts(n.svc.PoolManagers()[0], "127.0.0.1:0", netsim.Local(), stage.ServerOptions{})
	return n, err
}

// replica is a workload's in-process topology with one traced client.
type replica struct {
	t      *tracer
	nodes  []*node // client endpoint first
	client *core.Client
	wire   *metrics.WireStats // the client's frames and bytes
	hop    *stage.Remote      // stage stub the hop metric times directly
	tmp    string
}

func (rp *replica) close() {
	if rp.client != nil {
		_ = rp.client.Close() // connection teardown
	}
	if rp.hop != nil {
		_ = rp.hop.Close()
	}
	for _, n := range rp.nodes {
		n.close()
	}
	_ = os.RemoveAll(rp.tmp) // scratch
}

// newReplica builds the workload's topology and warms its pools.
func newReplica(w *workload, tmpRoot string) (rp *replica, err error) {
	rp = &replica{t: newTracer(), wire: &metrics.WireStats{}}
	defer func() {
		if err != nil {
			rp.close()
		}
	}()
	rp.tmp, err = os.MkdirTemp(tmpRoot, "replica-")
	if err != nil {
		return rp, err
	}
	monitor, err := time.ParseDuration(w.monitor)
	if err != nil {
		return rp, err
	}
	var hopAddr string
	switch {
	case w.xdomain:
		nb, err := newNode(nodeConfig{name: "nb", ownDomains: "purdue,upc=na-0", monitor: monitor}, rp.t)
		if err != nil {
			return rp, err
		}
		rp.nodes = []*node{nb}
		na, err := newNode(nodeConfig{name: "na", ownDomains: "upc,purdue=nb-0", peerStages: []string{nb.stage.Addr()}, monitor: monitor}, rp.t)
		if err != nil {
			return rp, err
		}
		rp.nodes = []*node{na, nb}
		hopAddr = nb.stage.Addr()
	default:
		cfg := nodeConfig{monitor: monitor}
		if w.durable {
			cfg.journalDir = rp.tmp + "/journal"
		}
		n, err := newNode(cfg, rp.t)
		if err != nil {
			return rp, err
		}
		rp.nodes = []*node{n}
		hopAddr = n.stage.Addr()
	}
	rp.hop, err = stage.DialRemote(hopAddr, netsim.Local(), 0)
	if err != nil {
		return rp, err
	}
	rp.client, err = core.DialOpts(rp.nodes[0].srv.Addr(), netsim.Local(), core.DialConfig{
		Codecs: tracedCodecs(rp.t, "client"), Stats: rp.wire,
	})
	if err != nil {
		return rp, err
	}
	for _, q := range w.queries {
		g, err := rp.client.Request(q)
		if err != nil {
			return rp, fmt.Errorf("bench: replica warm %q: %w", q, err)
		}
		if err := rp.client.Release(g); err != nil {
			return rp, fmt.Errorf("bench: replica warm release %q: %w", q, err)
		}
	}
	return rp, nil
}

// grantor is the node whose pools answer the workload's queries: the peer
// in the partitioned topology, the only node otherwise.
func (rp *replica) grantor() *node { return rp.nodes[len(rp.nodes)-1] }
