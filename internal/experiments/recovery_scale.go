package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/registry"
)

// Crash recovery at scale: the durability journal turns the in-memory
// white-pages daemon into one that survives a kill, but the paper's
// allocation numbers only hold if (a) replaying a large fleet's journal
// finishes in operational time and (b) journaling the grant path does not
// meaningfully slow allocation. This experiment measures both: cold-boot
// recovery time (replay + registry restore + lease re-adoption) across
// fleet sizes, allocate p99 on the freshly recovered daemon, and the
// allocate p99 overhead of each fsync policy against the no-journal
// baseline.

// RecoveryConfig parameterizes the recovery sweep.
type RecoveryConfig struct {
	Sizes         []int // fleet sizes for the recovery sweep (x axis)
	Leases        int   // live leases journaled before the crash
	Clients       int   // closed-loop allocate clients
	OpsPerClient  int   // allocate iterations per client
	FsyncMachines int   // fixed fleet size for the fsync-policy comparison
	Seed          int64
}

// DefaultRecovery covers the paper-scale fleet: recovery must stay
// operational (seconds, not minutes) at 10k machines.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Sizes:         []int{1000, 5000, 10000},
		Leases:        64,
		Clients:       8,
		OpsPerClient:  40,
		FsyncMachines: 2000,
		Seed:          1,
	}
}

// ReplayBar is the driver-asserted recovery-time bound at the largest
// swept fleet.
const ReplayBar = 10 * time.Second

// FsyncPolicies are the journal configurations the overhead comparison
// sweeps; "none" is the no-journal baseline.
var FsyncPolicies = []string{"none", journal.FsyncOff, journal.FsyncInterval, journal.FsyncAlways}

// RecoveryResult is the sweep's output.
type RecoveryResult struct {
	// Recovery is cold-boot time (ms) vs fleet size: journal replay,
	// registry restore, service construction, and lease re-adoption.
	Recovery metrics.Series
	// Allocate is allocate p99 (ms) on the just-recovered daemon vs fleet
	// size — recovery must hand back a daemon that performs, not just one
	// that answers.
	Allocate metrics.Series
	// Fsync holds one single-point series per fsync policy: allocate p99
	// (ms) at FsyncMachines with the journal on the grant path. The x
	// value is the policy's index in FsyncPolicies.
	Fsync []metrics.Series
	// Restored/Reaped sanity-check the largest recovery point.
	Restored, Reaped int
}

// Check asserts the figure's regression bars: recovery at the largest
// fleet completes inside ReplayBar, every journaled lease was restored,
// and the default fsync policy (interval) costs at most 2x the
// no-journal allocate p99 (with a 2ms floor so microsecond baselines
// don't fail on scheduler noise).
func (r RecoveryResult) Check() error {
	if len(r.Recovery.Points) == 0 {
		return errors.New("recovery: no recovery series to assert")
	}
	last := r.Recovery.Points[len(r.Recovery.Points)-1]
	if limit := float64(ReplayBar.Milliseconds()); last.Y > limit {
		return fmt.Errorf("recovery: cold boot took %.0fms at %.0f machines, bar is %.0fms", last.Y, last.X, limit)
	}
	if r.Restored == 0 {
		return errors.New("recovery: no leases were restored at the largest fleet")
	}
	var none, interval *metrics.Series
	for i := range r.Fsync {
		switch r.Fsync[i].Label {
		case "fsync=none":
			none = &r.Fsync[i]
		case "fsync=" + journal.FsyncInterval:
			interval = &r.Fsync[i]
		}
	}
	if none == nil || interval == nil || len(none.Points) == 0 || len(interval.Points) == 0 {
		return errors.New("recovery: fsync comparison is missing the none or interval series")
	}
	base, got := none.Points[0].Y, interval.Points[0].Y
	allowed := 2 * base
	if floor := base + 2; allowed < floor {
		allowed = floor
	}
	if got > allowed {
		return fmt.Errorf("recovery: fsync=interval allocate p99 %.2fms exceeds %.2fms (2x no-journal %.2fms, +2ms floor)",
			got, allowed, base)
	}
	return nil
}

// RecoveryScale runs the sweep.
func RecoveryScale(cfg RecoveryConfig) (RecoveryResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg = DefaultRecovery()
	}
	res := RecoveryResult{
		Recovery: metrics.Series{Label: "cold boot"},
		Allocate: metrics.Series{Label: "post-recovery allocate p99"},
	}
	for _, size := range cfg.Sizes {
		point, err := recoveryPoint(cfg, size)
		if err != nil {
			return res, fmt.Errorf("recovery at %d machines: %w", size, err)
		}
		res.Recovery.Add(float64(size), float64(point.boot.Milliseconds()))
		res.Allocate.Add(float64(size), ms(point.allocP99))
		res.Restored, res.Reaped = point.restored, point.reaped
	}
	for i, policy := range FsyncPolicies {
		p99, err := fsyncPoint(cfg, policy)
		if err != nil {
			return res, fmt.Errorf("fsync=%s: %w", policy, err)
		}
		s := metrics.Series{Label: "fsync=" + policy}
		s.Add(float64(i), ms(p99))
		res.Fsync = append(res.Fsync, s)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type recoverySample struct {
	boot     time.Duration
	allocP99 time.Duration
	restored int
	reaped   int
}

// leasePoolInstance is the pool the pre-crash leases belong to. It is
// deliberately NOT the pool the post-recovery allocate workload uses, so
// the workload measures fresh allocation on a recovered daemon rather
// than contention against the re-adopted members.
const leasePoolInstance = "bench,==/recovered#0"

// buildCrashedJournal populates a fleet, journals a monitor-style update
// wave plus cfg.Leases live grants, and crashes the process — the on-disk
// state a dead daemon leaves behind.
func buildCrashedJournal(dir string, cfg RecoveryConfig, size int) error {
	db, err := newDB()
	if err != nil {
		return err
	}
	if err := registry.HomogeneousFleetSpec(size).Populate(db, time.Now()); err != nil {
		return err
	}
	jnl, _, err := journal.Open(journal.Config{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		return err
	}
	source := func(limit, offset int) ([]*registry.Machine, int, error) {
		page, total := db.Page(nil, registry.Cursor{Offset: offset, Limit: limit, Total: true})
		return page, total, nil
	}
	if err := jnl.Attach(db, source, 0); err != nil {
		return err
	}
	// One monitor wave after the baseline snapshot: the replayed tail is
	// events, not just snapshot pages.
	names := db.Names()
	for i, name := range names {
		if err := db.UpdateDynamic(name, registry.Dynamic{Load: float64(i % 7), LastUpdate: time.Now()}); err != nil {
			return err
		}
	}
	expiry := time.Now().Add(10 * time.Minute)
	for i := 0; i < cfg.Leases && i < len(names); i++ {
		jnl.LeaseGranted(&pool.Lease{
			ID:        fmt.Sprintf("%s:%d:bench", leasePoolInstance, i),
			Machine:   names[i],
			Addr:      names[i],
			AccessKey: "bench",
			Pool:      leasePoolInstance,
			Granted:   time.Now(),
		}, expiry)
	}
	if err := jnl.Flush(); err != nil {
		return err
	}
	jnl.Crash()
	return nil
}

// recoveryPoint measures one fleet size: cold-boot time from the crashed
// journal directory to a recovered service, then allocate p99 on it.
func recoveryPoint(cfg RecoveryConfig, size int) (recoverySample, error) {
	var out recoverySample
	dir, err := os.MkdirTemp("", "actyp-recovery-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	if err := buildCrashedJournal(dir, cfg, size); err != nil {
		return out, err
	}

	bootStart := time.Now()
	jnl, st, err := journal.Open(journal.Config{Dir: dir, Fsync: journal.FsyncInterval})
	if err != nil {
		return out, err
	}
	defer jnl.Close()
	db, err := newDB()
	if err != nil {
		return out, err
	}
	if err := st.RestoreDB(db); err != nil {
		return out, err
	}
	svc, err := core.New(core.Options{
		DB: db, Seed: cfg.Seed, LeaseTTL: time.Minute, LeaseLog: jnl,
		PoolEngine: PoolEngine(),
	})
	if err != nil {
		return out, err
	}
	defer svc.Close()
	recovered := make([]core.RecoveredLease, 0, len(st.Leases))
	for _, lr := range st.Leases {
		recovered = append(recovered, core.RecoveredLease{Lease: lr.Lease, Expires: lr.Expires})
	}
	rep, err := svc.Recover(recovered, core.RecoverOptions{})
	if err != nil {
		return out, err
	}
	out.boot = time.Since(bootStart)
	out.restored, out.reaped = rep.Restored, rep.Reaped
	if rep.Restored != len(st.Leases) {
		return out, fmt.Errorf("restored %d of %d replayed leases (dropped %d)", rep.Restored, len(st.Leases), rep.Dropped)
	}
	if len(st.Machines) != size {
		return out, fmt.Errorf("replay produced %d machines, want %d", len(st.Machines), size)
	}

	if err := jnl.Attach(db, func(limit, offset int) ([]*registry.Machine, int, error) {
		return svc.SelectMachines("", limit, offset)
	}, 0); err != nil {
		return out, err
	}

	rec := metrics.NewRecorder()
	err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(int, int) error {
		g, err := svc.Request("punch.rsrc.arch = sun")
		if err != nil {
			return err
		}
		return svc.Release(g)
	})
	if err != nil {
		return out, err
	}
	out.allocP99 = rec.Percentile(99)
	return out, nil
}

// fsyncPoint measures allocate p99 with the journal's lease hook on the
// grant path under one fsync policy ("none": no journal at all).
func fsyncPoint(cfg RecoveryConfig, policy string) (time.Duration, error) {
	db, err := newDB()
	if err != nil {
		return 0, err
	}
	if err := registry.HomogeneousFleetSpec(cfg.FsyncMachines).Populate(db, time.Now()); err != nil {
		return 0, err
	}
	opts := core.Options{DB: db, Seed: cfg.Seed, PoolEngine: PoolEngine()}
	var jnl *journal.Journal
	if policy != "none" {
		dir, err := os.MkdirTemp("", "actyp-fsync-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		jnl, _, err = journal.Open(journal.Config{Dir: dir, Fsync: policy})
		if err != nil {
			return 0, err
		}
		defer jnl.Close()
		opts.LeaseLog = jnl
	}
	svc, err := core.New(opts)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	const criteria = "punch.rsrc.arch = sun"
	if err := svc.Precreate(criteria); err != nil {
		return 0, err
	}
	if jnl != nil {
		if err := jnl.Attach(db, func(limit, offset int) ([]*registry.Machine, int, error) {
			return svc.SelectMachines("", limit, offset)
		}, 0); err != nil {
			return 0, err
		}
	}
	rec := metrics.NewRecorder()
	err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(int, int) error {
		g, err := svc.Request(criteria)
		if err != nil {
			return err
		}
		return svc.Release(g)
	})
	if err != nil {
		return 0, err
	}
	return rec.Percentile(99), nil
}
