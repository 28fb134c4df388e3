// Command actypd runs a complete Active Yellow Pages service as a network
// daemon: white-pages database, resource monitor, and the query-manager /
// pool-manager / resource-pool pipeline, exposed over TCP via the wire
// protocol. Clients (see actypctl) submit queries and receive machine
// leases with session access keys.
//
// Usage:
//
//	actypd [flags]
//
// With -db the white pages load from a JSON snapshot; otherwise a
// synthetic fleet of -machines machines is generated. The -profile flag
// injects LAN- or WAN-like latency for controlled experiments. The wire
// codec is negotiated per connection (-wire-codec pins the preference),
// and the daemon can additionally host a UDP endpoint (-udp-addr, window
// -udp-window), a pool-manager stage endpoint (-stage-addr), and a
// pool-spawning proxy endpoint (-proxy-addr); -conn-window sets the
// in-flight window of every TCP endpoint.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/policy"
	"actyp/internal/proxy"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/schedule"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// daemonConfig carries every flag into run.
type daemonConfig struct {
	addr        string
	machines    int
	dbPath      string
	profile     string
	scanCost    time.Duration
	qms, pms    int
	objective   string
	monitor     time.Duration
	warm        int
	firstMatch  bool
	leaseTTL    time.Duration
	connWindow  int
	wireCodec   string
	laneWeights string
	admitRate   float64
	admitBurst  float64
	admitKeys   string
	udpAddr     string
	udpWindow   int
	udpSockets  int
	stageAddr   string
	proxyAddr   string
	peerAddrs   string
	fanout      int
	hedgeDelay  time.Duration
	remoteWatch string
	ownDomains  string
	nodeName    string
	journalDir  string
	journalSync string
	snapEvery   time.Duration
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7464", "listen address")
	flag.IntVar(&cfg.machines, "machines", 256, "synthetic fleet size (ignored with -db)")
	flag.StringVar(&cfg.dbPath, "db", "", "load white pages from this JSON snapshot")
	flag.StringVar(&cfg.profile, "profile", "local", "network profile: local, lan or wan")
	flag.DurationVar(&cfg.scanCost, "scancost", 0, "modelled per-entry linear-search cost (e.g. 2us)")
	flag.IntVar(&cfg.qms, "query-managers", 1, "query manager replicas")
	flag.IntVar(&cfg.pms, "pool-managers", 1, "pool manager replicas")
	flag.StringVar(&cfg.objective, "objective", "least-load", "pool scheduling objective")
	flag.DurationVar(&cfg.monitor, "monitor", time.Second, "resource monitor sweep interval (0 disables)")
	flag.IntVar(&cfg.warm, "warm", 0, "pre-stripe machines across N pools and pre-create them")
	flag.BoolVar(&cfg.firstMatch, "first-match", false, "return the first composite fragment instead of reintegrating all")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "reclaim leases not renewed within this lifetime (0 disables)")
	flag.IntVar(&cfg.connWindow, "conn-window", wire.DefaultWindow, "per-connection in-flight request window of every TCP endpoint: client, stage and proxy (1 serializes each connection)")
	flag.StringVar(&cfg.wireCodec, "wire-codec", "auto", "wire codec preference: auto (negotiate binary, JSON floor), binary, json, binary+flate, or a comma list in preference order")
	flag.StringVar(&cfg.laneWeights, "lane-weights", "lease=4,bulk=1", "priority-lane round-robin weights for overloaded dispatch, e.g. lease=4,bulk=1 (control is always first); \"off\" restores plain FIFO dispatch")
	flag.Float64Var(&cfg.admitRate, "admit-rate", 0, "default per-account admission rate in requests/s; over-limit requests are shed with Busy (0 disables admission)")
	flag.Float64Var(&cfg.admitBurst, "admit-burst", 0, "default admission burst capacity in tokens (0: same as -admit-rate)")
	flag.StringVar(&cfg.admitKeys, "admit-keys", "", "per-account admission overrides as key=rate[:burst] pairs, e.g. alice=100:200,batch=10")
	flag.StringVar(&cfg.udpAddr, "udp-addr", "", "also serve the service over UDP on this address")
	flag.IntVar(&cfg.udpWindow, "udp-window", wire.DefaultWindow, "UDP in-flight dispatch window (bounds datagram fan-out; 1 serializes dispatch)")
	flag.IntVar(&cfg.udpSockets, "udp-sockets", 0, "UDP reply socket pool size (0: GOMAXPROCS, capped at 16; 1: single shared socket)")
	flag.StringVar(&cfg.stageAddr, "stage-addr", "", "also expose the first pool manager as a stage endpoint on this address")
	flag.StringVar(&cfg.proxyAddr, "proxy-addr", "", "also run a pool-spawning proxy server on this address")
	flag.StringVar(&cfg.peerAddrs, "peer-addrs", "", "comma-separated stage endpoints of federation peers; local misses delegate to them")
	flag.IntVar(&cfg.fanout, "fanout", 0, "peer delegation width: peers contacted concurrently on a local miss (<=1 keeps the serial walk)")
	flag.DurationVar(&cfg.hedgeDelay, "hedge-delay", 0, "stagger between delegation fan-out branches, e.g. 10ms (0 races the full width at once)")
	flag.StringVar(&cfg.remoteWatch, "remote-watch", "", "mirror remote actypd registries into the local white pages over the wire watch stream: comma-separated addr[=domain] entries, where =domain subscribes only that domain's slice (typically with -machines 0); the links offer the -wire-codec preference")
	flag.StringVar(&cfg.ownDomains, "own-domains", "", "enable domain partitioning: comma-separated static assignments, each \"domain\" (owned here) or \"domain=node\"; unlisted domains rendezvous-hash over this node and -peer-addrs peers (\"auto\" enables with no static pins)")
	flag.StringVar(&cfg.nodeName, "node-name", "", "pool-manager name prefix; federated daemons need distinct names (the delegation visited list keys on them) — defaults to pm, or pm@<addr> when -stage-addr or -peer-addrs is set")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "durability journal directory: registry events and lease transitions are logged there, replayed on boot, and compacted by snapshots (empty disables durability)")
	flag.StringVar(&cfg.journalSync, "journal-fsync", journal.FsyncInterval, "journal fsync policy: always (sync every append), interval (timer-driven, default), or off (OS writeback only)")
	flag.DurationVar(&cfg.snapEvery, "snapshot-interval", time.Minute, "journal snapshot (and compaction) period; 0 snapshots only on shutdown and watch-ring resync")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Fatalf("actypd: %v", err)
	}
}

// checkWindows rejects a window flag below 1. The daemon's flags default
// to wire.DefaultWindow, so 0 can only be a typo or a sign bug in a
// wrapper script, not a request for the default.
func checkWindows(cfg daemonConfig) error {
	if cfg.connWindow < 1 {
		return fmt.Errorf("-conn-window %d: want a window of 1 or more (1 serializes each connection)", cfg.connWindow)
	}
	if cfg.udpWindow < 1 {
		return fmt.Errorf("-udp-window %d: want a window of 1 or more (1 serializes dispatch)", cfg.udpWindow)
	}
	return nil
}

func run(cfg daemonConfig) error {
	if err := checkWindows(cfg); err != nil {
		return err
	}
	db := registry.NewDB()
	profile, err := profileByName(cfg.profile)
	if err != nil {
		return err
	}
	codecs, err := wire.ParseCodecs(cfg.wireCodec)
	if err != nil {
		return err
	}
	// One WireStats instance spans every endpoint and link of the daemon,
	// so the shutdown report is the process's whole wire footprint per
	// codec.
	wireStats := &metrics.WireStats{}
	// Manager names must be unique across a federation mesh (the visited
	// list, self/peer filters, and the domain-ownership table all key on
	// them), so a daemon that is about to federate or partition defaults
	// to a prefix carrying its own listen address.
	nodeName := cfg.nodeName
	if nodeName == "" && (cfg.stageAddr != "" || cfg.peerAddrs != "" || cfg.ownDomains != "") {
		nodeName = "pm@" + cfg.addr
	}

	// Federation peers are dialed before the registry is populated: the
	// domain-ownership table rendezvous-hashes over the peer NAMES the
	// dial handshake fetches, and population is owned-domains-only once
	// the table exists.
	var remotes []*stage.Remote
	if cfg.peerAddrs != "" {
		for _, addr := range strings.Split(cfg.peerAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			remote, err := stage.DialRemote(addr, profile, 0)
			if err != nil {
				return fmt.Errorf("-peer-addrs %s: %w", addr, err)
			}
			defer remote.Close()
			remotes = append(remotes, remote)
			log.Printf("actypd: federation peer %s at %s", remote.Name(), addr)
		}
	}
	var routes *route.Table
	if cfg.ownDomains != "" {
		spec := cfg.ownDomains
		if spec == "auto" {
			spec = "" // rendezvous-only, no static pins
		}
		// The table's node identities are pool-manager names as peers see
		// them: this node is reachable as its first (stage-served) manager,
		// "<nodeName>-0", and the dial handshake above fetched the peers'
		// manager names the same way. Every node hashing the same strings
		// is what makes the rendezvous tables agree without coordination.
		routeNode := nodeName + "-0"
		static, err := route.ParseStatic(routeNode, spec)
		if err != nil {
			return err
		}
		nodes := []string{routeNode}
		for _, r := range remotes {
			nodes = append(nodes, r.Name())
		}
		routes = route.New(routeNode)
		routes.Reload(static, nodes)
		log.Printf("actypd: domain partitioning on: %d static assignments, rendezvous over %d nodes", len(static), len(nodes))
	}

	// Durability: replay the journal BEFORE any other population path —
	// a non-empty replay is the previous incarnation's state and wins
	// over -db and the synthetic fleet.
	var (
		jnl        *journal.Journal
		jstate     *journal.State
		journStats *metrics.JournalStats
	)
	if cfg.journalDir != "" {
		journStats = metrics.NewJournalStats()
		jnl, jstate, err = journal.Open(journal.Config{
			Dir:   cfg.journalDir,
			Fsync: cfg.journalSync,
			Stats: journStats,
			Logf:  log.Printf,
		})
		if err != nil {
			return err
		}
		defer jnl.Close()
	}
	switch {
	case jstate != nil && !jstate.Empty():
		// Domain-scoped replay: a partitioned node restores only the
		// domains it owns. Foreign records in the journal (watch-replica
		// rows, or domains that migrated away) are dropped here; their
		// owners hold the authoritative copies.
		if routes != nil {
			if dropped := jstate.Filter(routes.KeepMachine); dropped > 0 {
				log.Printf("actypd: replay: dropped %d foreign-domain records", dropped)
			}
		}
		if err := jstate.RestoreDB(db); err != nil {
			return err
		}
		c := journStats.Snapshot()
		log.Printf("actypd: replayed %d machines and %d leases from %s (%d records in %s, torn=%d corrupt=%d)",
			db.Len(), len(jstate.Leases), cfg.journalDir, c.ReplayRecords, c.ReplayDuration, c.ReplayTorn, c.ReplayCorrupt)
		if cfg.dbPath != "" {
			log.Printf("actypd: -db %s ignored: the journal replay is authoritative", cfg.dbPath)
		}
	case cfg.dbPath != "" && journal.IsSnapshotFile(cfg.dbPath):
		// A journal-snapshot-format file (e.g. an actyp-fleet mirror)
		// seeds the registry directly; any lease records inside describe
		// another daemon's grants and are ignored here.
		ms, _, err := journal.ReadSnapshotFile(cfg.dbPath)
		if err != nil {
			return err
		}
		for _, m := range ms {
			if err := db.Add(m); err != nil {
				return err
			}
		}
		log.Printf("actypd: loaded %d machines from snapshot %s", db.Len(), cfg.dbPath)
	case cfg.dbPath != "":
		f, err := os.Open(cfg.dbPath)
		if err != nil {
			return err
		}
		err = db.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		log.Printf("actypd: loaded %d machines from %s", db.Len(), cfg.dbPath)
	default:
		// Owned-only from the start: a record the ownership table assigns
		// elsewhere is dropped as it is generated, never stored and pruned.
		if err := registry.DefaultFleetSpec(cfg.machines).Each(time.Now(), func(m *registry.Machine) error {
			if routes != nil && !routes.KeepMachine(m) {
				return nil
			}
			return db.AddOwned(m)
		}); err != nil {
			return err
		}
		log.Printf("actypd: generated a synthetic fleet of %d machines; %d owned records resident", cfg.machines, db.Len())
	}

	// Owned-only storage: whatever population path ran, a partitioned
	// node keeps only the records its ownership table assigns to it (the
	// replay and synthetic paths already filtered; pruning again is a
	// no-op there).
	if routes != nil {
		if pruned := pruneForeign(db, routes); pruned > 0 {
			log.Printf("actypd: pruned %d foreign-domain records; %d owned records resident", pruned, db.Len())
		}
	}

	fedStats := metrics.NewFederationStats()
	opts := core.Options{
		DB:              db,
		QueryManagers:   cfg.qms,
		PoolManagers:    cfg.pms,
		NodeName:        nodeName,
		Objective:       cfg.objective,
		ScanCost:        cfg.scanCost,
		MonitorInterval: cfg.monitor,
		LeaseTTL:        cfg.leaseTTL,
		Fanout:          cfg.fanout,
		HedgeDelay:      cfg.hedgeDelay,
		FederationStats: fedStats,
		Routes:          routes,
	}
	if cfg.firstMatch {
		opts.Mode = querymgr.FirstMatch
	}
	if jnl != nil {
		opts.LeaseLog = jnl
		opts.DelegationLog = jnl
	}
	svc, err := core.New(opts)
	if err != nil {
		return err
	}
	defer svc.Close()
	log.Printf("actypd: pool freshness in %s mode", svc.RefreshMode())

	// Crash recovery: re-adopt the replayed leases into rebuilt pools
	// before the listener opens. No probe is injected — renewals are the
	// daemon's liveness signal, so holders that never come back are
	// reaped by the TTL reaper after the grace window.
	if jstate != nil && len(jstate.Leases) > 0 {
		recovered := make([]core.RecoveredLease, 0, len(jstate.Leases))
		for _, lr := range jstate.Leases {
			recovered = append(recovered, core.RecoveredLease{Lease: lr.Lease, Expires: lr.Expires, Peer: lr.Peer, Domain: lr.Domain})
		}
		rep, err := svc.Recover(recovered, core.RecoverOptions{Logf: log.Printf})
		if err != nil {
			return err
		}
		journStats.Recovered(rep.Restored+rep.DelegatedRestored, rep.Reaped)
		log.Printf("actypd: recovery: %d leases restored across %d pools, %d reaped, %d dropped, delegated %d restored / %d dropped",
			rep.Restored, rep.PoolsAdopted, rep.Reaped, rep.Dropped, rep.DelegatedRestored, rep.DelegatedDropped)
	}

	// Federation: delegate local misses to peer pool managers over their
	// stage endpoints (dialed above, before population), and optionally
	// mirror remote registries into the local white pages through the
	// wire watch stream.
	if len(remotes) > 0 {
		for _, remote := range remotes {
			svc.Directory().AddPeer(remote)
		}
		log.Printf("actypd: peer delegation fanout %d, hedge delay %s", cfg.fanout, cfg.hedgeDelay)
	}
	for _, entry := range strings.Split(cfg.remoteWatch, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rcli, w, err := mirrorRemote(entry, db, profile, core.DialConfig{Codecs: codecs, Stats: wireStats}, fedStats)
		if err != nil {
			return fmt.Errorf("-remote-watch %s: %w", entry, err)
		}
		defer rcli.Close()
		defer w.Close()
	}

	if cfg.warm > 0 {
		if err := svc.StripePools(cfg.warm); err != nil {
			return err
		}
		if err := svc.WarmPools(cfg.warm); err != nil {
			return err
		}
		log.Printf("actypd: pre-created %d striped pools", cfg.warm)
	}

	// Attach the journal last in the boot sequence: the synchronous
	// initial snapshot baselines everything above (population, recovery,
	// warm pools) before the first event is drained.
	if jnl != nil {
		source := func(limit, offset int) ([]*registry.Machine, int, error) {
			return svc.SelectMachines("", limit, offset)
		}
		if routes != nil {
			source = ownedSnapshotSource(svc, routes)
		}
		if err := jnl.Attach(db, source, cfg.snapEvery); err != nil {
			return err
		}
		log.Printf("actypd: journaling to %s (fsync %s, snapshots every %s)", cfg.journalDir, cfg.journalSync, cfg.snapEvery)
	}

	overload, stats, err := overloadPolicy(cfg)
	if err != nil {
		return err
	}

	// One set of transport options serves every TCP endpoint; overload
	// control is the client listener's alone.
	serveOpts := wire.ServeOptions{Window: cfg.connWindow, Codecs: codecs, Stats: wireStats, Logf: log.Printf}
	clientOpts := serveOpts
	clientOpts.Overload = overload
	srv, err := core.ServeOpts(svc, cfg.addr, profile, clientOpts)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("actypd: serving on %s (profile %s, conn window %d, codecs %s)",
		srv.Addr(), cfg.profile, cfg.connWindow, cfg.wireCodec)

	if cfg.udpAddr != "" {
		udp, err := core.ServeUDPOpts(svc, cfg.udpAddr, core.UDPOptions{Window: cfg.udpWindow, Sockets: cfg.udpSockets, Overload: overload})
		if err != nil {
			return err
		}
		defer udp.Close()
		log.Printf("actypd: UDP endpoint on %s (window %d, %d reply sockets)", udp.Addr(), cfg.udpWindow, udp.Sockets())
	}
	if cfg.stageAddr != "" {
		pms := svc.PoolManagers()
		if len(pms) == 0 {
			return fmt.Errorf("no pool manager to expose on -stage-addr")
		}
		st, err := stage.ServeOpts(pms[0], cfg.stageAddr, profile, serveOpts)
		if err != nil {
			return err
		}
		defer st.Close()
		log.Printf("actypd: stage endpoint on %s", st.Addr())
	}
	if cfg.proxyAddr != "" {
		px, err := proxy.StartOpts(db, cfg.proxyAddr, profile, serveOpts)
		if err != nil {
			return err
		}
		defer px.Close()
		log.Printf("actypd: proxy endpoint on %s", px.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("actypd: shutting down")
	// Seal the journal BEFORE the deferred svc.Close(): shutdown's own
	// pool teardown releases every claim, and journaling those releases
	// would make a clean restart forget all live leases. The final
	// snapshot inside Close preserves them instead.
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Printf("actypd: journal close: %v", err)
		}
		log.Printf("actypd: journal: %s", journStats.Snapshot())
	}
	if stats != nil {
		for class, c := range stats.Snapshot() {
			if c.Admitted+c.Shed+c.Expired == 0 {
				continue
			}
			log.Printf("actypd: overload lane %s: admitted=%d shed=%d expired=%d done=%d",
				metrics.ClassNames[class], c.Admitted, c.Shed, c.Expired, c.Done)
		}
	}
	if report := wireStats.String(); report != "" {
		log.Printf("actypd: wire traffic per codec:\n%s", report)
	}
	if cfg.peerAddrs != "" || cfg.remoteWatch != "" {
		log.Printf("actypd: federation: %s", fedStats.Snapshot())
	}
	return nil
}

// overloadPolicy builds the daemon's overload-control configuration from
// the -lane-weights and -admit-* flags. The returned policy is shared by
// the TCP and UDP endpoints, so admission buckets and lane counters span
// both; each endpoint still queues independently.
// mirrorRemote starts one -remote-watch entry. A bare address mirrors the
// peer's whole registry; addr=domain subscribes only that domain's slice,
// so a cross-domain replica ships exactly the records it needs over the
// wire. The link dials with dial, the daemon's codec preference and wire
// stats.
func mirrorRemote(entry string, db *registry.DB, profile netsim.Profile, dial core.DialConfig, fedStats *metrics.FederationStats) (*core.Client, *registry.RemoteWatch, error) {
	addr, domain, _ := strings.Cut(entry, "=")
	rcli, err := core.DialOpts(addr, profile, dial)
	if err != nil {
		return nil, nil, err
	}
	wcfg := registry.RemoteWatchConfig{
		Transport: rcli,
		Replica:   db,
		Stats:     fedStats,
		Logf:      log.Printf,
	}
	if domain != "" {
		wcfg.Filter = route.Filter(domain)
	}
	w, err := registry.StartRemoteWatch(wcfg)
	if err != nil {
		_ = rcli.Close()
		return nil, nil, err
	}
	if domain != "" {
		log.Printf("actypd: mirroring domain %s of the registry at %s into the local white pages (codec %s)", domain, addr, rcli.CodecName())
	} else {
		log.Printf("actypd: mirroring the registry at %s into the local white pages (codec %s)", addr, rcli.CodecName())
	}
	return rcli, w, nil
}

func overloadPolicy(cfg daemonConfig) (*wire.OverloadPolicy, *metrics.OverloadStats, error) {
	if cfg.laneWeights == "off" {
		if cfg.admitRate > 0 || cfg.admitKeys != "" {
			return nil, nil, fmt.Errorf("-admit-rate/-admit-keys need lane dispatch; drop \"-lane-weights off\"")
		}
		return nil, nil, nil
	}
	weights, err := schedule.ParseLaneWeights(cfg.laneWeights)
	if err != nil {
		return nil, nil, err
	}
	stats := metrics.NewOverloadStats()
	overload := &wire.OverloadPolicy{
		LeaseWeight: weights.Lease,
		BulkWeight:  weights.Bulk,
		Stats:       stats,
	}
	if cfg.admitRate > 0 {
		overrides, err := policy.ParseAdmitOverrides(cfg.admitKeys)
		if err != nil {
			return nil, nil, err
		}
		burst := cfg.admitBurst
		if burst <= 0 {
			burst = cfg.admitRate
		}
		overload.Admit = core.AdmitFrom(policy.NewAdmitter(policy.AdmitLimit{Rate: cfg.admitRate, Burst: burst}, overrides))
		log.Printf("actypd: overload control: lanes lease=%d bulk=%d, admission %.0f req/s (burst %.0f) per account",
			weights.Lease, weights.Bulk, cfg.admitRate, burst)
	} else {
		if cfg.admitKeys != "" {
			return nil, nil, fmt.Errorf("-admit-keys without -admit-rate: set a default rate (use a huge one to only limit the listed keys)")
		}
		log.Printf("actypd: overload control: lanes lease=%d bulk=%d, admission off", weights.Lease, weights.Bulk)
	}
	return overload, stats, nil
}

// pruneForeign removes every record the ownership table assigns to
// another node, making the white pages owned-domains-only regardless of
// which population path filled them. Returns the number removed. It reads
// the fleet by pages of views: looking at one attribute of each record is
// no reason to copy any of them.
func pruneForeign(db *registry.DB, routes *route.Table) int {
	var foreign []string
	db.EachPage(nil, registry.Cursor{Limit: 4096, Shared: true}, func(page []*registry.Machine) {
		for _, m := range page {
			if !routes.KeepMachine(m) {
				foreign = append(foreign, m.Static.Name)
			}
		}
	})
	pruned := 0
	for _, name := range foreign {
		if err := db.Remove(name); err == nil {
			pruned++
		}
	}
	return pruned
}

// ownedSnapshotSource builds a journal snapshot source that pages only the
// records the ownership table keeps local, so snapshots (the dominant term
// in steady-state journal size) scale with the owned domains and never
// re-persist cross-domain watch replicas. Snapshot paging is monotone from
// offset 0 under the journal's snapshot mutex, so the source cuts a fresh
// filtered slice (one pass over the registry, resumed by last name)
// whenever a pass restarts at offset 0, serves the rest of that pass from
// it, and lets it go with the last page.
func ownedSnapshotSource(svc *core.Service, routes *route.Table) journal.SnapshotSource {
	var cut journal.SnapshotSource
	return func(limit, offset int) ([]*registry.Machine, int, error) {
		if offset == 0 || cut == nil {
			var owned []*registry.Machine
			svc.DB().EachPage(nil, registry.Cursor{Limit: limit}, func(page []*registry.Machine) {
				for _, m := range page {
					if routes.KeepMachine(m) {
						owned = append(owned, m)
					}
				}
			})
			cut = journal.SliceSource(owned)
		}
		page, total, err := cut(limit, offset)
		if offset+len(page) >= total {
			cut = nil // the pass is over: do not hold its copies until the next one
		}
		return page, total, err
	}
}

func profileByName(name string) (netsim.Profile, error) {
	switch name {
	case "local", "":
		return netsim.Local(), nil
	case "lan":
		return netsim.LAN(), nil
	case "wan":
		return netsim.WAN(), nil
	}
	return netsim.Profile{}, fmt.Errorf("unknown profile %q (want local, lan or wan)", name)
}
