package actyp

import (
	"sync"
	"testing"

	"actyp/internal/core"
	"actyp/internal/netsim"
	"actyp/internal/wire"
)

// BenchmarkTransport* measure single-connection wire throughput on a
// 10k-machine fleet over LAN latency: one op is a Request+Release cycle.
// The serial baseline keeps one request in flight (the pre-multiplexing
// per-connection behaviour); the Mux variants keep 8 callers in flight on
// the SAME connection, overlapping their round trips. The acceptance bar
// is Mux8 >= 5x Serial.

const transportCriteria = "punch.rsrc.arch = sun"

// benchTransport runs b.N Request+Release ops split across `callers`
// concurrent goroutines sharing one client connection to a server with
// the given per-connection window.
func benchTransport(b *testing.B, callers, window int) {
	svc := benchService(b, 10000, 0)
	if err := svc.Precreate(transportCriteria); err != nil {
		b.Fatal(err)
	}
	profile := netsim.LAN()
	srv, err := core.ServeOpts(svc, "127.0.0.1:0", profile, wire.ServeOptions{Window: window})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	cli, err := core.Dial(srv.Addr(), profile)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		ops := b.N / callers
		if w < b.N%callers {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(ops int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				g, err := cli.Request(transportCriteria)
				if err != nil {
					b.Error(err)
					return
				}
				if err := cli.Release(g); err != nil {
					b.Error(err)
					return
				}
			}
		}(ops)
	}
	wg.Wait()
}

// BenchmarkTransportSerial10k is the pre-multiplexing baseline: one
// request in flight on the connection at a time.
func BenchmarkTransportSerial10k(b *testing.B) { benchTransport(b, 1, 1) }

// BenchmarkTransportMux8_10k keeps 8 requests in flight on one connection
// against a full in-flight window.
func BenchmarkTransportMux8_10k(b *testing.B) { benchTransport(b, 8, 32) }

// BenchmarkTransportMux8Window1_10k isolates the client-side contribution:
// 8 callers pipeline the connection but the server dispatches serially.
func BenchmarkTransportMux8Window1_10k(b *testing.B) { benchTransport(b, 8, 1) }
