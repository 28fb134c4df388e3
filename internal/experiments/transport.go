package experiments

import (
	"fmt"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/wire"
)

// TransportConfig parameterizes the multiplexed-transport experiment: one
// TCP connection between a desktop and the service, shared by a growing
// number of concurrent callers, swept against the server's per-connection
// in-flight window. The serial baseline (window=1 with one caller) is the
// pre-multiplexing behaviour: one frame dispatched at a time, each op
// paying the full round trip before the next departs. Multiplexing lets
// the calls overlap their round trips on the shared connection, so
// single-connection throughput climbs with the number of callers instead
// of being pinned at 1/RTT.
type TransportConfig struct {
	Machines     int            // fleet size behind the service
	Windows      []int          // per-connection in-flight windows to sweep (1 = serial dispatch)
	Clients      []int          // concurrent callers sharing ONE connection (x axis)
	OpsPerClient int            // measured Request+Release cycles per caller per point
	Profile      netsim.Profile // injected network; the LAN default makes RTT visible
}

// DefaultTransport sweeps a 10k-machine fleet over LAN latency.
func DefaultTransport() TransportConfig {
	return TransportConfig{
		Machines:     10000,
		Windows:      []int{1, 8, 32},
		Clients:      []int{1, 2, 4, 8, 16, 32},
		OpsPerClient: 50,
		Profile:      netsim.LAN(),
	}
}

// TransportScale runs the sweep and returns one series per window:
// single-connection throughput (ops/s) against concurrent callers.
func TransportScale(cfg TransportConfig) ([]metrics.Series, error) {
	if cfg.Machines <= 0 {
		cfg.Machines = 10000
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 50
	}
	const criteria = "punch.rsrc.arch = sun"
	var out []metrics.Series
	for _, window := range cfg.Windows {
		s := metrics.Series{Label: fmt.Sprintf("window=%d", window)}
		for _, clients := range cfg.Clients {
			svc, err := newService(cfg.Machines, 0, 1)
			if err != nil {
				return out, err
			}
			if err := svc.Precreate(criteria); err != nil {
				svc.Close()
				return out, err
			}
			srv, err := core.ServeOpts(svc, "127.0.0.1:0", cfg.Profile, wire.ServeOptions{Window: window, Codecs: WireCodecs()})
			if err != nil {
				svc.Close()
				return out, err
			}
			cli, err := core.DialOpts(srv.Addr(), cfg.Profile, core.DialConfig{Codecs: WireCodecs()})
			if err != nil {
				srv.Close()
				svc.Close()
				return out, err
			}
			rec := metrics.NewRecorder()
			start := time.Now()
			err = closedLoop(clients, cfg.OpsPerClient, rec, func(client, iter int) error {
				g, err := cli.Request(criteria)
				if err != nil {
					return fmt.Errorf("window %d clients %d: %w", window, clients, err)
				}
				return cli.Release(g)
			})
			elapsed := time.Since(start)
			cli.Close()
			srv.Close()
			svc.Close()
			if err != nil {
				return out, err
			}
			ops := float64(clients * cfg.OpsPerClient)
			s.Add(float64(clients), ops/elapsed.Seconds())
		}
		out = append(out, s)
	}
	return out, nil
}
