package experiments

import (
	"testing"

	"actyp/internal/metrics"
	"actyp/internal/netsim"
)

// wanSeries builds a one-point series at x=32.
func wanSeries(label string, y float64) metrics.Series {
	s := metrics.Series{Label: label}
	s.Add(32, y)
	return s
}

// TestWanScaleBar runs a reduced WAN sweep and asserts the regression bar
// the full figure enforces in CI: compressed+delta moves at least 5x
// fewer bytes per op (or completes 3x the ops/s) than the full baseline
// at the largest batch on the bandwidth-modeled WAN profile.
func TestWanScaleBar(t *testing.T) {
	if testing.Short() {
		t.Skip("wan sweep needs wall time")
	}
	cfg := WanConfig{
		Machines:     128,
		Batches:      []int{4, 32},
		Clients:      4,
		OpsPerClient: 6,
		Legs:         DefaultWan().Legs,
		Profiles: []WanProfile{
			{Name: "lan", Profile: netsim.Local()},
			{Name: "wan", Profile: netsim.Profile{Latency: 2e6, Bandwidth: 256 << 10, Seed: 1}},
		},
	}
	res, err := WanScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Legs) * len(cfg.Profiles)
	if len(res.Ops) != want || len(res.Bytes) != want {
		t.Fatalf("want %d series per group, got ops=%d bytes=%d", want, len(res.Ops), len(res.Bytes))
	}
	for _, s := range append(res.Ops, res.Bytes...) {
		if len(s.Points) != len(cfg.Batches) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(cfg.Batches))
		}
	}
	if err := res.Check(); err != nil {
		t.Errorf("regression bar: %v", err)
	}
	// The delta and compressed legs must actually shrink the reply, not
	// just tie the baseline, at the largest batch.
	base := res.find(res.Bytes, "wan/binary full")
	delta := res.find(res.Bytes, "wan/binary delta")
	comp := res.find(res.Bytes, "wan/binary+flate delta")
	last := len(cfg.Batches) - 1
	if !(comp.Points[last].Y < delta.Points[last].Y && delta.Points[last].Y < base.Points[last].Y) {
		t.Errorf("bytes/op not monotone full > delta > delta+flate: %.0f / %.0f / %.0f",
			base.Points[last].Y, delta.Points[last].Y, comp.Points[last].Y)
	}
}

// TestWanCheckRejectsBadSeries pins the bar itself: a compressed leg that
// neither shrinks bytes 5x nor speeds ops 3x must fail Check.
func TestWanCheckRejectsBadSeries(t *testing.T) {
	bad := WanResult{
		Ops: []metrics.Series{
			wanSeries("wan/binary full", 10), wanSeries("wan/binary+flate delta", 12),
		},
		Bytes: []metrics.Series{
			wanSeries("wan/binary full", 10000), wanSeries("wan/binary+flate delta", 9000),
		},
	}
	if err := bad.Check(); err == nil {
		t.Fatal("Check passed a no-gain result")
	}
	ok := WanResult{
		Ops: []metrics.Series{
			wanSeries("wan/binary full", 10), wanSeries("wan/binary+flate delta", 12),
		},
		Bytes: []metrics.Series{
			wanSeries("wan/binary full", 10000), wanSeries("wan/binary+flate delta", 1000),
		},
	}
	if err := ok.Check(); err != nil {
		t.Fatalf("Check rejected a 10x bytes win: %v", err)
	}
	var empty WanResult
	if err := empty.Check(); err == nil {
		t.Fatal("Check passed an empty result")
	}
}
