package main

import (
	"math"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/pool"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {99.9, 10}, {0, 1}, {10, 1}, {11, 2}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want the sample", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN, not a made-up latency")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) and statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{0.31, 0.35, 0.33, 0.36, 0.34, 0.30, 0.38}, 0.31, 0.34, 0.36},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 || math.Abs(median(c.xs)-c.med) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}

// An open loop's schedule must not move when a request is slow: request k is
// due at start + k/rate whatever happened before it, and a request sent late
// is timed from its due time, so the stall is charged to every request it
// delayed.
func TestDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	const rate = 2000.0
	for _, k := range []int{0, 1, 1999, 2000, 30000} {
		want := start.Add(time.Duration(k) * 500 * time.Microsecond)
		if got := dueTime(start, k, rate); got.Sub(want).Abs() > time.Nanosecond {
			t.Errorf("dueTime(k=%d) = %v after start, want %v", k, got.Sub(start), want.Sub(start))
		}
	}
	// A 40 ms stall starting at request 100: with a service time of 0.1 ms
	// the backlog drains at 0.4 ms per request, so the requests behind it
	// see 40, 39.6, 39.2 ... ms from their due times, not 0.1 ms.
	service, stall := 100*time.Microsecond, 40*time.Millisecond
	free := start // when the single connection is next free
	var worst, after time.Duration
	missed := 0
	for k := 0; k < 400; k++ {
		due := dueTime(start, k, rate)
		send := due
		if free.After(send) {
			send = free
		}
		took := service
		if k == 100 {
			took += stall
		}
		free = send.Add(took)
		lat := free.Sub(due)
		if lat > worst {
			worst = lat
		}
		if lat > sloLimit {
			missed++
		}
		if k == 101 {
			after = lat
		}
	}
	if worst != stall+service {
		t.Errorf("stalled request took %v from its due time, want %v", worst, stall+service)
	}
	if want := stall + 2*service - 500*time.Microsecond; after != want {
		t.Errorf("request behind the stall took %v from its due time, want %v", after, want)
	}
	// (40.1 - 5) ms of backlog above the limit, drained 0.4 ms per request.
	if missed < 85 || missed > 90 {
		t.Errorf("%d requests missed the %v limit, want about 88", missed, sloLimit)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a.x", Parent: 1, Start: 15, End: 25},
		{Name: "b", Parent: 0, Start: 50, End: 90},
		{Name: "b.late", Parent: 3, Start: 80, End: 95}, // sticks out of its parent: only 80..90 counts
	}
	want := []int64{100 - 30 - 40, 30 - 10, 10, 40 - 10, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// The ladder of one allocate must account for every nanosecond of the
// request: the self times of its spans add up to the request's duration.
func TestLadderSumsToRequest(t *testing.T) {
	marks := []mark{
		{"client.encode", 2, 5},
		{"server.decode", 30, 33},
		{spanParse, 45, 50},
		{spanResolve, 56, 90},
		{spanJournal, 80, 88},
		{spanAllocate, 60, 88},
		{"server.encode", 100, 104},
		{"client.decode", 130, 133},
	}
	spans, ok := ladder(7, 0, 140, marks)
	if !ok {
		t.Fatal("complete marks produced no ladder")
	}
	self := selfTimes(spans)
	byName := map[string]int64{}
	var sum int64
	for i, s := range spans {
		if s.Cycle != 7 {
			t.Errorf("span %s carries cycle %d, want 7", s.Name, s.Cycle)
		}
		byName[s.Name] += self[i]
		sum += self[i]
	}
	if sum != 140 {
		t.Errorf("self times add up to %d, want the request's 140", sum)
	}
	for name, want := range map[string]int64{
		spanRequest:  2 + (45 - 33) + (140 - 133), // call set-up, dispatch to the translator, reply wake-up
		spanEncode:   3 + 4,
		spanDecode:   3 + 3,
		spanTransit:  (30 - 5) + (130 - 104),
		spanService:  100 - 90,
		spanSubmit:   56 - 50,
		spanParse:    5,
		spanResolve:  (90 - 56) - (88 - 60),
		spanAllocate: (88 - 60) - 8,
		spanJournal:  8,
	} {
		if byName[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, byName[name], want)
		}
	}

	// With a peer hop the allocate hangs under the hop, not under Resolve.
	hop := append(append([]mark(nil), marks...), mark{spanForward, 58, 89})
	spans, ok = ladder(0, 0, 140, hop)
	if !ok {
		t.Fatal("marks with a hop produced no ladder")
	}
	self = selfTimes(spans)
	for i, s := range spans {
		switch s.Name {
		case spanResolve:
			if self[i] != (90-56)-(89-58) {
				t.Errorf("Resolve self time with a hop = %d, want %d", self[i], (90-56)-(89-58))
			}
		case spanForward:
			if self[i] != (89-58)-(88-60) {
				t.Errorf("hop self time = %d, want %d", self[i], (89-58)-(88-60))
			}
		}
	}

	if _, ok := ladder(0, 0, 140, marks[:4]); ok {
		t.Error("incomplete marks must not produce a ladder")
	}
}

func TestOracleFlagsDoubleGrant(t *testing.T) {
	o := newOracle()
	grant := func(machine, id string) *core.Grant {
		return &core.Grant{Lease: &pool.Lease{Machine: machine, ID: id}}
	}
	a, b := grant("m0001", "l1"), grant("m0001", "l2")
	o.granted(a)
	o.releasing(a)
	o.granted(b)
	if n := len(o.report()); n != 0 {
		t.Fatalf("release then grant reported %d faults", n)
	}
	o.granted(a)
	if n := len(o.report()); n != 1 {
		t.Fatalf("double grant reported %d faults, want 1", n)
	}
}
