package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"actyp/internal/registry"
)

func fleetDB(t *testing.T, n int) *registry.DB {
	t.Helper()
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSyntheticSamplerBounds(t *testing.T) {
	s := NewSyntheticSampler(42)
	d := registry.Dynamic{Load: 2}
	for i := 0; i < 1000; i++ {
		d = s.Sample("m0000", d, time.Unix(int64(i), 0))
		if d.Load < 0 || d.Load > 4 {
			t.Fatalf("load %f out of bounds at step %d", d.Load, i)
		}
		if d.FreeMemory <= 0 || d.FreeMemory > s.BaseMemory {
			t.Fatalf("memory %f out of bounds", d.FreeMemory)
		}
		if d.ServiceFlag&registry.FlagMonitorOK == 0 {
			t.Fatal("monitor flag not set")
		}
	}
}

func TestSyntheticSamplerDeterministicPerMachine(t *testing.T) {
	a := NewSyntheticSampler(7)
	b := NewSyntheticSampler(7)
	da, db := registry.Dynamic{}, registry.Dynamic{}
	for i := 0; i < 50; i++ {
		da = a.Sample("m0001", da, time.Unix(int64(i), 0))
		db = b.Sample("m0001", db, time.Unix(int64(i), 0))
		if da.Load != db.Load {
			t.Fatalf("divergence at step %d: %f vs %f", i, da.Load, db.Load)
		}
	}
	// Different machines get different streams: over a long horizon the
	// load trajectories must diverge at least once (single steps can
	// coincide because load clamps at zero).
	dm1, dm2 := registry.Dynamic{Load: 2}, registry.Dynamic{Load: 2}
	diverged := false
	for i := 0; i < 100 && !diverged; i++ {
		dm1 = a.Sample("m0001x", dm1, time.Unix(int64(i), 0))
		dm2 = a.Sample("m0002y", dm2, time.Unix(int64(i), 0))
		diverged = dm1.Load != dm2.Load
	}
	if !diverged {
		t.Error("per-machine streams identical over 100 steps")
	}
}

// TestSyntheticSamplerUniform pins the stateless draw to what the figure
// drivers' load dynamics assume of it: uniform on [0, 1) across machines
// and ticks alike. 100k (machine, tick) pairs over 64 buckets; the 0.1%
// point of chi-square with 63 degrees of freedom is 103.4.
func TestSyntheticSamplerUniform(t *testing.T) {
	const machines, ticks, buckets = 1000, 100, 64
	s := NewSyntheticSampler(1)
	var hist [buckets]int
	start := time.Unix(1700000000, 0)
	for m := 0; m < machines; m++ {
		name := fmt.Sprintf("m%04d", m)
		for k := 0; k < ticks; k++ {
			// Consecutive sweeps of a running monitor: a second apart, give
			// or take scheduling.
			u := s.draw(name, start.Add(time.Duration(k)*time.Second+time.Duration(k*m)*time.Microsecond))
			if u < 0 || u >= 1 {
				t.Fatalf("draw %v outside [0, 1)", u)
			}
			hist[int(u*buckets)]++
		}
	}
	want := float64(machines*ticks) / buckets
	chi2 := 0.0
	for _, n := range hist {
		d := float64(n) - want
		chi2 += d * d / want
	}
	if chi2 > 103.4 {
		t.Errorf("chi-square %.1f over %d buckets: the draw is not uniform (histogram %v)", chi2, buckets, hist)
	}
	// One machine's walk must not be a function of its neighbour's: the
	// same tick on adjacent names gives unrelated draws.
	same := 0
	for k := 0; k < ticks; k++ {
		now := start.Add(time.Duration(k) * time.Second)
		if (s.draw("m0001", now) < 0.5) == (s.draw("m0002", now) < 0.5) {
			same++
		}
	}
	if same < 30 || same > 70 {
		t.Errorf("adjacent machines move together on %d of %d ticks", same, ticks)
	}
}

func TestSyntheticSamplerSampleAllocatesNothing(t *testing.T) {
	s := NewSyntheticSampler(1)
	d := registry.Dynamic{Load: 1}
	now := time.Unix(1700000000, 0)
	if n := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Second)
		d = s.Sample("m0042", d, now)
	}); n != 0 {
		t.Errorf("Sample allocates %v times per call, want 0", n)
	}
}

func TestSweepUpdatesAllMachines(t *testing.T) {
	db := fleetDB(t, 25)
	now := time.Unix(100, 0)
	m := New(Config{
		DB:      db,
		Sampler: NewSyntheticSampler(1),
		Now:     func() time.Time { return now },
	})
	if n := m.Sweep(); n != 25 {
		t.Fatalf("swept %d machines, want 25", n)
	}
	db.Walk(func(rec *registry.Machine) bool {
		if !rec.Dynamic.LastUpdate.Equal(now) {
			t.Errorf("machine %s not refreshed", rec.Static.Name)
		}
		return true
	})
	if m.Sweeps() != 1 {
		t.Errorf("Sweeps = %d", m.Sweeps())
	}
}

func TestSweepStalenessMarksDown(t *testing.T) {
	db := fleetDB(t, 3)
	// All machines report LastUpdate = t0 (from fleet build). Sweep at
	// t0+10min with 1min staleness: everything goes down.
	m := New(Config{
		DB:        db,
		Sampler:   SamplerFunc(func(_ string, prev registry.Dynamic, _ time.Time) registry.Dynamic { return prev }),
		Staleness: time.Minute,
		Now:       func() time.Time { return time.Unix(600, 0) },
	})
	if n := m.Sweep(); n != 0 {
		t.Fatalf("stale machines should not be sampled, swept %d", n)
	}
	db.Walk(func(rec *registry.Machine) bool {
		if rec.State != registry.StateDown {
			t.Errorf("machine %s should be down", rec.Static.Name)
		}
		return true
	})
}

func TestSweepFreshMachinesSurviveStalenessPolicy(t *testing.T) {
	db := fleetDB(t, 3)
	m := New(Config{
		DB: db,
		Sampler: SamplerFunc(func(_ string, prev registry.Dynamic, now time.Time) registry.Dynamic {
			prev.LastUpdate = now
			return prev
		}),
		Staleness: time.Minute,
		Now:       func() time.Time { return time.Unix(30, 0) },
	})
	if n := m.Sweep(); n != 3 {
		t.Fatalf("swept %d, want 3", n)
	}
	db.Walk(func(rec *registry.Machine) bool {
		if rec.State != registry.StateUp {
			t.Errorf("machine %s should be up", rec.Static.Name)
		}
		return true
	})
}

func TestStartStop(t *testing.T) {
	db := fleetDB(t, 5)
	var mu sync.Mutex
	calls := 0
	m := New(Config{
		DB:       db,
		Interval: time.Millisecond,
		Sampler: SamplerFunc(func(_ string, prev registry.Dynamic, now time.Time) registry.Dynamic {
			mu.Lock()
			calls++
			mu.Unlock()
			prev.LastUpdate = now
			return prev
		}),
	})
	m.Start()
	m.Start() // double start is a no-op
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		c := calls
		mu.Unlock()
		if c >= 10 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("monitor never ran")
		case <-time.After(time.Millisecond):
		}
	}
	m.Stop()
	m.Stop() // double stop is a no-op
	mu.Lock()
	after := calls
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	final := calls
	mu.Unlock()
	if final != after {
		t.Errorf("monitor kept running after Stop: %d -> %d", after, final)
	}
}

func TestDefaultInterval(t *testing.T) {
	m := New(Config{DB: registry.NewDB(), Sampler: NewSyntheticSampler(1)})
	if m.cfg.Interval != time.Second {
		t.Errorf("default interval = %v", m.cfg.Interval)
	}
	if m.cfg.Now == nil {
		t.Error("default clock not set")
	}
}
