package main

import (
	"fmt"
	"path/filepath"
	"time"

	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/monitor"
	"actyp/internal/pool"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/shadow"
)

// The functions below time direct calls into each layer's public functions
// on the replica's own state: what one operation of the layer costs with
// nothing around it. Sub-microsecond operations are timed in batches.

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// batchUS times n calls of f and returns microseconds per call.
func batchUS(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return us(time.Since(start)) / float64(n)
}

func (rp *replica) journalCounts() metrics.JournalCounts {
	return rp.grantor().jstats.Snapshot() // nil-safe: zero without a journal
}

// micro fills out with the per-operation metrics.
func (rp *replica) micro(w *workload, seed int, out map[string]float64) error {
	front, back := rp.nodes[0], rp.grantor()

	// wire: an empty round trip.
	var pingErr error
	out["wire.rtt_ping_us"] = medianOf(2000, func() float64 {
		start := time.Now()
		if err := rp.client.Ping(); err != nil {
			pingErr = err
		}
		return us(time.Since(start))
	})
	if pingErr != nil {
		return fmt.Errorf("bench: ping: %w", pingErr)
	}

	// registry and wire: one 64-record select, by direct call and as frames.
	preds := selectPreds
	var selErr error
	var batch []*registry.Machine
	out["registry.select_us_per_record"] = medianOf(30, func() float64 {
		start := time.Now()
		ms, _, err := front.svc.SelectMachines(preds[seed%len(preds)], selectBatch, 0)
		took := time.Since(start)
		if err != nil || len(ms) != selectBatch {
			selErr = fmt.Errorf("bench: SelectMachines: %d records, %v", len(ms), err)
			return 0
		}
		batch = ms
		return us(took) / selectBatch
	})
	if selErr != nil {
		return selErr
	}
	out["registry.batch_bytes_per_record"] = float64(len(registry.AppendBatch(nil, batch))) / selectBatch
	in0 := rp.clientBytesIn()
	const wireSelects = 20
	for i := 0; i < wireSelects; i++ {
		if ms, _, err := rp.client.Select(preds[(seed+i)%len(preds)], selectBatch, false); err != nil || len(ms) != selectBatch {
			return fmt.Errorf("bench: replica select: %d records, %v", len(ms), err)
		}
	}
	out["wire.select_reply_bytes"] = float64(rp.clientBytesIn()-in0) / wireSelects

	// query: compile the workload's first query.
	q, err := query.ParseBasic(w.queries[0])
	if err != nil {
		return err
	}
	out["query.compile_us"] = medianOf(50, func() float64 {
		return batchUS(1000, func() { _ = query.CompileRsrc(q) })
	})

	// shadow: one account out and back.
	sh := shadow.NewManager()
	if err := sh.AddMachine("m0000", 8, 20000); err != nil {
		return err
	}
	var shErr error
	out["shadow.allocate_us"] = medianOf(50, func() float64 {
		return batchUS(1000, func() {
			acct, err := sh.Allocate("m0000")
			if err == nil {
				err = sh.Release("m0000", acct.User)
			}
			if err != nil {
				shErr = err
			}
		})
	})
	if shErr != nil {
		return fmt.Errorf("bench: shadow: %w", shErr)
	}

	// route: one ownership lookup, on the node's own table where it has one.
	table := front.svc.Routes()
	if table == nil {
		table = route.New("pm-0")
		table.Reload(map[string]string{"purdue": "pm-0", "upc": "peer-0"}, []string{"pm-0", "peer-0"})
	}
	out["route.owner_ns"] = 1e3 * medianOf(50, func() float64 {
		return batchUS(10000, func() { _, _ = table.Owner("purdue") })
	})

	// stage: Remote.Forward round trip minus the pool.Allocate inside it.
	rp.t.on.Store(true)
	var hopErr error
	out["stage.hop_us"] = medianOf(1000, func() float64 {
		rp.t.collect()
		start := time.Now()
		lease, err := rp.hop.Forward(q, poolmgr.DefaultTTL, nil)
		rtt := time.Since(start)
		if err != nil {
			hopErr = err
			return 0
		}
		inner := time.Duration(0)
		for _, m := range rp.t.collect() {
			if m.name == spanAllocate {
				inner = time.Duration(m.end - m.start)
			}
		}
		if err := rp.hop.Release(lease); err != nil {
			hopErr = err
		}
		return us(rtt - inner)
	})
	rp.t.on.Store(false)
	if hopErr != nil {
		return fmt.Errorf("bench: stage hop: %w", hopErr)
	}

	// pool: renew and release on the pool that serves the first query.
	lease, err := rp.hop.Forward(q, poolmgr.DefaultTTL, nil)
	if err != nil {
		return err
	}
	ref, ok := back.svc.Directory().ByInstance(lease.Pool)
	if err := rp.hop.Release(lease); err != nil {
		return err
	}
	p, isPool := ref.Local.(*pool.Pool)
	if !ok || !isPool {
		return fmt.Errorf("bench: pool instance %s not found on %s", lease.Pool, back.name)
	}
	var poolErr error
	var renews, releases []float64
	for i := 0; i < 2000; i++ {
		l, err := p.Allocate(q)
		if err != nil {
			return fmt.Errorf("bench: pool allocate: %w", err)
		}
		t0 := time.Now()
		err1 := p.Renew(l.ID)
		t1 := time.Now()
		err2 := p.Release(l.ID)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			poolErr = fmt.Errorf("renew: %v, release: %v", err1, err2)
		}
		renews = append(renews, us(t1.Sub(t0)))
		releases = append(releases, us(t2.Sub(t1)))
	}
	if poolErr != nil {
		return fmt.Errorf("bench: pool: %w", poolErr)
	}
	out["pool.renew_us"] = median(renews)
	out["pool.release_us"] = median(releases)

	// pool, registry, monitor: what one monitor sweep sets in motion.
	var updates []registry.DynamicUpdate
	back.db.Walk(func(m *registry.Machine) bool {
		updates = append(updates, registry.DynamicUpdate{Name: m.Static.Name, Dynamic: m.Dynamic})
		return true
	})
	byName := make(map[string]registry.Dynamic, len(updates))
	for _, u := range updates {
		byName[u.Name] = u.Dynamic
	}
	var events []registry.Event
	for _, name := range p.Members() {
		events = append(events, registry.Event{Kind: registry.EventDynamicUpdated, Name: name, Dynamic: byName[name]})
	}
	out["pool.apply_us_per_event"] = medianOf(5, func() float64 {
		start := time.Now()
		p.Apply(events)
		return us(time.Since(start)) / float64(len(events))
	})
	out["registry.update_batch_us_per_machine"] = medianOf(5, func() float64 {
		start := time.Now()
		back.db.UpdateDynamicBatch(updates)
		return us(time.Since(start)) / float64(len(updates))
	})
	mon := monitor.New(monitor.Config{DB: back.db, Sampler: monitor.NewSyntheticSampler(int64(seed))})
	out["monitor.sweep_ms"] = medianOf(5, func() float64 {
		start := time.Now()
		mon.Sweep()
		return ms(time.Since(start))
	})

	// journal, last: it closes the replica's journal to time the replay.
	return rp.microJournal(back, out)
}

func (rp *replica) clientBytesIn() int64 {
	var n int64
	for _, c := range rp.wire.Snapshot() {
		n += c.BytesIn
	}
	return n
}

// microJournal times a snapshot and a replay of the node's state: on the
// workload's own journal where it has one, on a journal attached for the
// purpose otherwise (what durability would cost this fleet).
func (rp *replica) microJournal(n *node, out map[string]float64) error {
	j, dir := n.jnl, n.jdir
	if j == nil {
		dir = filepath.Join(rp.tmp, "side-journal")
		var err error
		j, _, err = journal.Open(journal.Config{Dir: dir, Fsync: journal.FsyncInterval})
		if err != nil {
			return err
		}
		source := func(limit, offset int) ([]*registry.Machine, int, error) {
			return n.svc.SelectMachines("", limit, offset)
		}
		if err := j.Attach(n.db, source, 0); err != nil {
			return err
		}
	}
	n.jnl = nil // closed here, not again by node.close
	start := time.Now()
	if err := j.Snapshot(); err != nil {
		return fmt.Errorf("bench: journal snapshot: %w", err)
	}
	out["journal.snapshot_ms"] = ms(time.Since(start))
	if err := j.Close(); err != nil {
		return fmt.Errorf("bench: journal close: %w", err)
	}
	start = time.Now()
	j2, state, err := journal.Open(journal.Config{Dir: dir, Fsync: journal.FsyncInterval})
	if err != nil {
		return fmt.Errorf("bench: journal replay: %w", err)
	}
	out["journal.replay_ms"] = ms(time.Since(start))
	j2.Crash() // nothing was appended; drop the handle without another snapshot
	if state == nil || len(state.Machines) != n.db.Len() {
		return fmt.Errorf("bench: journal replay restored a different fleet than the %d machines journaled", n.db.Len())
	}
	return nil
}
