// Package monitor implements the ActYP resource monitoring service of
// Section 4.2: it keeps the dynamic fields 2–7 of every white-pages record
// fresh. The paper notes that almost any monitoring system can provide this
// functionality (PUNCH evaluated SGI's Performance Co-Pilot); here a
// pluggable Sampler abstraction stands in for the probe, and a synthetic
// sampler reproduces plausible load dynamics for controlled experiments.
package monitor

import (
	"sync"
	"time"

	"actyp/internal/registry"
)

// Sampler produces the next dynamic snapshot for one machine. prev is the
// snapshot currently in the database.
type Sampler interface {
	Sample(machine string, prev registry.Dynamic, now time.Time) registry.Dynamic
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(machine string, prev registry.Dynamic, now time.Time) registry.Dynamic

// Sample calls f.
func (f SamplerFunc) Sample(machine string, prev registry.Dynamic, now time.Time) registry.Dynamic {
	return f(machine, prev, now)
}

// SyntheticSampler random-walks machine load and derives memory pressure
// from it, emulating the background activity of a shared workstation fleet.
// It is deterministic for a given seed, machine name and sample time, and
// keeps no state per machine: each step is drawn by hashing those three.
type SyntheticSampler struct {
	seed uint64

	// Volatility is the maximum per-sample load delta (default 0.25).
	Volatility float64
	// BaseMemory is the free memory of an idle machine in MB (default 512).
	BaseMemory float64
}

// NewSyntheticSampler returns a sampler whose per-machine random walks are
// derived from seed.
func NewSyntheticSampler(seed int64) *SyntheticSampler {
	return &SyntheticSampler{
		seed:       uint64(seed),
		Volatility: 0.25,
		BaseMemory: 512,
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw returns the machine's uniform variate in [0, 1) for the sample taken
// at now: FNV-1a over the name picks the machine's stream, the sample time
// the position in it, and a finalizer round after each makes neighbouring
// names and neighbouring instants independent.
func (s *SyntheticSampler) draw(machine string, now time.Time) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(machine); i++ {
		h = (h ^ uint64(machine[i])) * 1099511628211
	}
	x := mix64(mix64(s.seed+h) + uint64(now.UnixNano())*0x9e3779b97f4a7c15)
	return float64(x>>11) / (1 << 53)
}

// Sample random-walks the load in [0, 4] and scales free memory down as
// load rises. Jobs counted by the allocator are preserved.
func (s *SyntheticSampler) Sample(machine string, prev registry.Dynamic, now time.Time) registry.Dynamic {
	next := prev
	next.Load += (s.draw(machine, now)*2 - 1) * s.Volatility
	if next.Load < 0 {
		next.Load = 0
	}
	if next.Load > 4 {
		next.Load = 4
	}
	frac := 1 - next.Load/8 // even a loaded machine keeps half its memory
	next.FreeMemory = s.BaseMemory * frac
	next.FreeSwap = 2 * s.BaseMemory * frac
	next.LastUpdate = now
	next.ServiceFlag |= registry.FlagMonitorOK
	return next
}

// Config controls a Monitor.
type Config struct {
	DB       *registry.DB
	Sampler  Sampler
	Interval time.Duration // default 1s
	// Staleness, when positive, marks machines down if their LastUpdate
	// is older than this at sweep time (a missed-heartbeat policy).
	Staleness time.Duration
	// Now supplies the current time; defaults to time.Now. Tests inject a
	// fake clock here.
	Now func() time.Time
}

// Monitor periodically sweeps the database, refreshing fields 2–7 for every
// machine via the Sampler and optionally enforcing the staleness policy.
type Monitor struct {
	cfg    Config
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	sweeps int
	// Recycled across sweeps: what the pass read and what it writes back.
	seen  []registry.Status
	batch []registry.DynamicUpdate
}

// New creates a Monitor. DB and Sampler are required.
func New(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Monitor{cfg: cfg}
}

// Sweep performs one monitoring pass synchronously and returns the number
// of machines refreshed. Machines that are down stay down; the staleness
// policy can newly mark machines down. The samples are written through
// UpdateDynamicBatch in one call, so a fleet-wide sweep costs the store
// O(shards) lock acquisitions instead of one per machine — and the
// registry change stream carries one event per machine either way. The
// pass reads name, state and dynamic fields by value (Statuses); no
// record is cloned, and the sampler runs outside the store's locks.
func (m *Monitor) Sweep() int {
	now := m.cfg.Now()
	var stale []string
	// The buffers are recycled across sweeps; a concurrent Sweep (tests
	// drive them directly) simply allocates its own.
	m.mu.Lock()
	seen, batch := m.seen[:0], m.batch[:0]
	m.seen, m.batch = nil, nil
	m.mu.Unlock()
	seen = m.cfg.DB.Statuses(seen)
	for _, rec := range seen {
		if m.cfg.Staleness > 0 && rec.State == registry.StateUp &&
			!rec.Dynamic.LastUpdate.IsZero() && now.Sub(rec.Dynamic.LastUpdate) > m.cfg.Staleness {
			stale = append(stale, rec.Name)
			continue
		}
		batch = append(batch, registry.DynamicUpdate{
			Name:    rec.Name,
			Dynamic: m.cfg.Sampler.Sample(rec.Name, rec.Dynamic, now),
		})
	}
	// Machines removed between the read and the write are skipped by the
	// batch (and by SetState below); that is not a failure of the sweep.
	n := m.cfg.DB.UpdateDynamicBatch(batch)
	for _, name := range stale {
		_ = m.cfg.DB.SetState(name, registry.StateDown)
	}
	m.mu.Lock()
	m.sweeps++
	m.seen, m.batch = seen[:0], batch[:0]
	m.mu.Unlock()
	return n
}

// Sweeps returns how many passes have completed.
func (m *Monitor) Sweeps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweeps
}

// Start launches the periodic sweep goroutine. It is an error to start a
// monitor twice without stopping it.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(m.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Sweep()
			}
		}
	}()
}

// Stop halts the sweep goroutine and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
