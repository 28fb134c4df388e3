package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestWireStatsCounts(t *testing.T) {
	var s WireStats
	s.Sent("binary+flate", 100, 400)
	s.Sent("binary+flate", 50, 100)
	s.Received("binary+flate", 30, 60)
	s.Sent("json", 80, 80)

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d codecs, want 2", len(snap))
	}
	c := snap["binary+flate"]
	if c.FramesOut != 2 || c.BytesOut != 150 || c.RawOut != 500 {
		t.Errorf("out counts: %+v", c)
	}
	if c.FramesIn != 1 || c.BytesIn != 30 || c.RawIn != 60 {
		t.Errorf("in counts: %+v", c)
	}
	// ratio = (500+60)/(150+30)
	if got := c.Ratio(); got < 3.1 || got > 3.2 {
		t.Errorf("ratio = %v", got)
	}
	if got := snap["json"].Ratio(); got != 1 {
		t.Errorf("uncompressed ratio = %v, want 1", got)
	}
	if got := (WireCounts{}).Ratio(); got != 1 {
		t.Errorf("zero-traffic ratio = %v, want 1", got)
	}
}

func TestWireStatsString(t *testing.T) {
	var s WireStats
	if s.String() != "" {
		t.Errorf("empty stats render %q, want empty", s.String())
	}
	s.Sent("json", 10, 10)
	s.Sent("binary", 20, 20)
	out := s.String()
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "codec binary:") || !strings.HasPrefix(lines[1], "codec json:") {
		t.Errorf("render not sorted one-per-line:\n%s", out)
	}
}

func TestWireStatsConcurrent(t *testing.T) {
	var s WireStats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Sent("binary", 10, 10)
				s.Received("binary", 5, 5)
			}
		}()
	}
	wg.Wait()
	c := s.Snapshot()["binary"]
	if c.FramesOut != 8000 || c.FramesIn != 8000 || c.BytesOut != 80000 || c.BytesIn != 40000 {
		t.Errorf("lost updates: %+v", c)
	}
}
