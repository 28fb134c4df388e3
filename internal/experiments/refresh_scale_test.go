package experiments

import "testing"

// TestRefreshScaleSmoke runs a miniature sweep through the full driver:
// two sizes, real monitor sweeps underneath.
func TestRefreshScaleSmoke(t *testing.T) {
	cfg := RefreshScaleConfig{
		Sizes:        []int{200, 400},
		Clients:      4,
		OpsPerClient: 5,
	}
	series, err := RefreshScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Label != "events" {
		t.Fatalf("got %d series, want one labelled events", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(cfg.Sizes) {
			t.Errorf("series %s has %d points, want %d", s.Label, len(s.Points), len(cfg.Sizes))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("series %s point %v has non-positive p99", s.Label, p)
			}
		}
	}
}
