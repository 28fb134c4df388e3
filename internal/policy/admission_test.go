package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(a *Admitter, c *fakeClock) *Admitter {
	a.SetClock(c.now)
	return a
}

func TestAdmitBurstThenReject(t *testing.T) {
	clock := newFakeClock()
	a := withClock(NewAdmitter(AdmitLimit{Rate: 10, Burst: 3}, nil), clock)
	for i := 0; i < 3; i++ {
		if ok, _ := a.Admit("u"); !ok {
			t.Fatalf("admit %d within burst rejected", i)
		}
	}
	ok, retry := a.Admit("u")
	if ok {
		t.Fatal("admit past burst accepted")
	}
	// The bucket is exactly empty, so the next token is 1/rate away.
	if want := 100 * time.Millisecond; retry != want {
		t.Errorf("retryAfter = %v, want %v", retry, want)
	}
}

func TestAdmitRefill(t *testing.T) {
	clock := newFakeClock()
	a := withClock(NewAdmitter(AdmitLimit{Rate: 10, Burst: 5}, nil), clock)
	for i := 0; i < 5; i++ {
		a.Admit("u")
	}
	if ok, _ := a.Admit("u"); ok {
		t.Fatal("empty bucket admitted")
	}
	clock.advance(250 * time.Millisecond) // 2.5 tokens back at 10/s
	for i := 0; i < 2; i++ {
		if ok, _ := a.Admit("u"); !ok {
			t.Fatalf("refilled token %d rejected", i)
		}
	}
	if ok, _ := a.Admit("u"); ok {
		t.Fatal("admitted more than the refill")
	}
	// Refill caps at the burst, no matter how long the idle stretch.
	clock.advance(time.Hour)
	admitted := 0
	for i := 0; i < 20; i++ {
		if ok, _ := a.Admit("u"); ok {
			admitted++
		}
	}
	if admitted != 5 {
		t.Errorf("admitted %d after long idle, want burst of 5", admitted)
	}
}

// TestAdmitRateInvariant is the property test: over any simulated
// interval, the number of admitted requests can never exceed
// burst + rate*elapsed, regardless of the arrival pattern.
func TestAdmitRateInvariant(t *testing.T) {
	const rate, burst = 100.0, 20.0
	clock := newFakeClock()
	a := withClock(NewAdmitter(AdmitLimit{Rate: rate, Burst: burst}, nil), clock)
	rng := rand.New(rand.NewSource(42))
	var admitted int
	var elapsed time.Duration
	for step := 0; step < 5000; step++ {
		// Bursty arrivals: sometimes many requests at one instant,
		// sometimes idle gaps.
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			if ok, retry := a.Admit("k"); ok {
				admitted++
			} else if retry <= 0 {
				t.Fatalf("step %d: rejection with no retry hint", step)
			}
		}
		gap := time.Duration(rng.Intn(20)) * time.Millisecond
		clock.advance(gap)
		elapsed += gap
	}
	bound := int(burst+rate*elapsed.Seconds()) + 1
	if admitted > bound {
		t.Errorf("admitted %d over %v, exceeds bucket bound %d", admitted, elapsed, bound)
	}
	// Sanity: the bucket is not rejecting everything either.
	if admitted < int(rate*elapsed.Seconds()/2) {
		t.Errorf("admitted only %d over %v; bucket leaks tokens", admitted, elapsed)
	}
}

func TestAdmitPerKeyIsolationAndOverrides(t *testing.T) {
	clock := newFakeClock()
	a := withClock(NewAdmitter(AdmitLimit{Rate: 1, Burst: 1}, map[string]AdmitLimit{
		"vip": {Rate: 1000, Burst: 100},
	}), clock)
	if ok, _ := a.Admit("alice"); !ok {
		t.Fatal("alice's first request rejected")
	}
	if ok, _ := a.Admit("alice"); ok {
		t.Fatal("alice's second request admitted past her burst")
	}
	// bob has his OWN default-limit bucket; alice draining hers must not
	// affect him.
	if ok, _ := a.Admit("bob"); !ok {
		t.Fatal("bob rejected because alice drained her bucket")
	}
	// The override key gets its configured capacity.
	for i := 0; i < 100; i++ {
		if ok, _ := a.Admit("vip"); !ok {
			t.Fatalf("vip request %d rejected within its 100 burst", i)
		}
	}
}

func TestAdmitDisabledByNonPositiveRate(t *testing.T) {
	a := NewAdmitter(AdmitLimit{}, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := a.Admit(""); !ok {
			t.Fatal("zero rate must admit everything (admission is opt-in)")
		}
	}
}

func TestParseAdmitOverrides(t *testing.T) {
	got, err := ParseAdmitOverrides("alice=100:200, batch=10 ,svc=2.5")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]AdmitLimit{
		"alice": {Rate: 100, Burst: 200},
		"batch": {Rate: 10, Burst: 10}, // burst defaults to the rate
		"svc":   {Rate: 2.5, Burst: 2.5},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %+v, want %+v", k, got[k], w)
		}
	}
	if m, err := ParseAdmitOverrides("  "); err != nil || m != nil {
		t.Errorf("blank spec = %v, %v; want nil, nil", m, err)
	}
	for _, bad := range []string{"alice", "=10", "a=zero", "a=10:bad", "a=-1", "a=10:-2"} {
		if _, err := ParseAdmitOverrides(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestAdmitterForgetsFullBuckets: a bucket refilled to its burst is
// dropped on a later visit to its shard, so 200k distinct keys leave a
// bounded map once burst/rate seconds pass, and a dropped key admits as a
// new one does. Admit stays allocation-free for a live key, sweeps
// included.
func TestAdmitterForgetsFullBuckets(t *testing.T) {
	const rate, burst = 10.0, 5.0
	clock := newFakeClock()
	a := withClock(NewAdmitter(AdmitLimit{Rate: rate, Burst: burst}, nil), clock)
	const keys = 200000
	for i := 0; i < keys; i++ {
		if ok, _ := a.Admit(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("first request of key %d rejected", i)
		}
	}
	if n := bucketCount(a); n != keys {
		t.Fatalf("%d buckets for %d keys before any refill", n, keys)
	}
	clock.advance(time.Duration(burst / rate * float64(time.Second)))
	const fresh = 1000
	for i := 0; i < fresh; i++ {
		a.Admit(fmt.Sprintf("fresh%d", i))
	}
	if n := bucketCount(a); n > fresh+admitShards {
		t.Fatalf("%d buckets after %d keys went idle for burst/rate and %d new ones came", n, keys, fresh)
	}
	// A forgotten key gets its whole burst back, no more.
	admitted := 0
	for i := 0; i < 2*burst; i++ {
		if ok, _ := a.Admit("k7"); ok {
			admitted++
		}
	}
	if admitted != burst {
		t.Errorf("a forgotten key admitted %d, want the burst of %d", admitted, int(burst))
	}
	// A live key allocates nothing, through refills and sweeps of its
	// shard alike: here it comes back each time its bucket is full, when
	// every visit sweeps, and keeps its bucket.
	if allocs := testing.AllocsPerRun(2000, func() {
		clock.advance(time.Duration(burst / rate * float64(time.Second)))
		a.Admit("k7")
	}); allocs != 0 {
		t.Errorf("Admit of a live key allocates %.1f times", allocs)
	}
}

func bucketCount(a *Admitter) int {
	n := 0
	for i := range a.shards {
		n += len(a.shards[i].buckets)
	}
	return n
}
