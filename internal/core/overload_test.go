package core

import (
	"errors"
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/policy"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

func newOverloadService(t *testing.T, machines int) *Service {
	t.Helper()
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(machines).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestServerAdmissionByFromKey wires the whole admission stack end to
// end: a policy.Admitter keyed off the envelope From identity, bridged
// into the wire layer via AdmitFrom, sheds a noisy account's queries
// with Busy while control frames and other accounts flow untouched.
func TestServerAdmissionByFromKey(t *testing.T) {
	svc := newOverloadService(t, 8)
	admitter := policy.NewAdmitter(policy.AdmitLimit{Rate: 0.001, Burst: 1}, map[string]policy.AdmitLimit{
		"calm": {Rate: 1000, Burst: 1000},
	})
	srv, err := ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{
		Window:   4,
		Overload: &wire.OverloadPolicy{Admit: AdmitFrom(admitter)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	noisy, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{Timeout: 5 * time.Second, From: "noisy"})
	if err != nil {
		t.Fatal(err)
	}
	defer noisy.Close()

	// Burst of 1: the first query spends the only token...
	g, err := noisy.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	// ...and the second is shed with a retry hint. At 0.001 tokens/s the
	// bucket will not refill within the test.
	_, err = noisy.Request("punch.rsrc.arch = sun")
	var busy *wire.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-limit request err = %v, want *wire.BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("Busy carried no retry-after hint")
	}

	// Control traffic from the same shed account is untouched: the lease
	// still releases and pings flow.
	if err := noisy.Ping(); err != nil {
		t.Fatalf("ping from shed account: %v", err)
	}
	if err := noisy.Release(g); err != nil {
		t.Fatalf("release from shed account: %v", err)
	}

	// A well-behaved account has its own bucket and is unaffected.
	calm, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{Timeout: 5 * time.Second, From: "calm"})
	if err != nil {
		t.Fatal(err)
	}
	defer calm.Close()
	for i := 0; i < 3; i++ {
		g, err := calm.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatalf("calm request %d: %v", i, err)
		}
		if err := calm.Release(g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUDPOverloadLanes runs the UDP endpoint through the lane dispatcher:
// pings keep working while an always-reject admission gate sheds queries
// with Busy, and the Busy maps to *wire.BusyError on the client.
func TestUDPOverloadLanes(t *testing.T) {
	svc := newOverloadService(t, 4)
	rejectBulk := func(env *wire.Envelope) (bool, time.Duration) {
		return false, 15 * time.Millisecond
	}
	udp, err := ServeUDPOpts(svc, "127.0.0.1:0", UDPOptions{
		Window:   2,
		Overload: &wire.OverloadPolicy{Admit: rejectBulk},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { udp.Close() })

	c, err := DialUDP(udp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Control frames never touch the admission gate.
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("udp ping %d under admission: %v", i, err)
		}
	}
	_, err = c.Request("punch.rsrc.arch = sun")
	var busy *wire.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("udp query err = %v, want *wire.BusyError", err)
	}
	if busy.RetryAfter != 15*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 15ms", busy.RetryAfter)
	}
}

// TestUDPOverloadServesQueries is the happy path through the UDP lane
// workers: with overload control on but nothing shedding, the full
// query/release cycle works.
func TestUDPOverloadServesQueries(t *testing.T) {
	svc := newOverloadService(t, 4)
	udp, err := ServeUDPOpts(svc, "127.0.0.1:0", UDPOptions{
		Window:   2,
		Overload: &wire.OverloadPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { udp.Close() })

	c, err := DialUDP(udp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		g, err := c.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := c.Release(g); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
}
