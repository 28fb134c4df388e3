package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/wire"
)

// CodecConfig parameterizes the wire-codec experiment: the same
// Request+Release traffic is pushed through a server and client pinned to
// one codec at a time, at several request payload sizes (padding rides in
// the QueryRequest's visited list, which the service ignores), so the
// end-to-end ops/s series isolates the per-frame encode/decode cost the
// binary codec removes. A second, socket-free sweep measures raw frames/s
// through each codec's encode+decode round trip at the same payload
// sizes.
type CodecConfig struct {
	Machines     int      // fleet size behind the service
	Codecs       []string // codec names to sweep (x series)
	PayloadBytes []int    // request padding sizes (x axis)
	Clients      int      // concurrent callers sharing ONE connection
	OpsPerClient int      // measured Request+Release cycles per caller per point
	FrameIters   int      // encode/decode round trips per point in the frames sweep
	Profile      netsim.Profile
}

// DefaultCodec sweeps binary against JSON on a 5k-machine fleet with the
// zero-latency profile, so codec CPU — not propagation — dominates.
func DefaultCodec() CodecConfig {
	return CodecConfig{
		Machines:     5000,
		Codecs:       []string{"binary", "json"},
		PayloadBytes: []int{0, 1024, 8192},
		Clients:      8,
		OpsPerClient: 60,
		FrameIters:   20000,
		Profile:      netsim.Local(),
	}
}

// CodecScale runs both sweeps and returns (end-to-end ops/s series,
// wire-level frames/s series), one series per codec, payload bytes on the
// x axis.
func CodecScale(cfg CodecConfig) (ops, frames []metrics.Series, err error) {
	if cfg.Machines <= 0 {
		cfg.Machines = 5000
	}
	if len(cfg.Codecs) == 0 {
		cfg.Codecs = []string{"binary", "json"}
	}
	if len(cfg.PayloadBytes) == 0 {
		cfg.PayloadBytes = []int{0, 1024, 8192}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 60
	}
	if cfg.FrameIters <= 0 {
		cfg.FrameIters = 20000
	}
	for _, name := range cfg.Codecs {
		codec, err := wire.CodecByName(name)
		if err != nil {
			return ops, frames, err
		}
		opsSeries := metrics.Series{Label: name}
		frameSeries := metrics.Series{Label: name}
		for _, pad := range cfg.PayloadBytes {
			rate, err := codecOpsPoint(cfg, codec, pad)
			if err != nil {
				return ops, frames, err
			}
			opsSeries.Add(float64(pad), rate)
			frameSeries.Add(float64(pad), codecFramesPoint(codec, pad, cfg.FrameIters))
		}
		ops = append(ops, opsSeries)
		frames = append(frames, frameSeries)
	}
	return ops, frames, nil
}

// codecOpsPoint measures end-to-end Request+Release throughput with both
// ends pinned to one codec (the negotiation still runs; offering a single
// codec is what pins it, exactly like `-wire-codec json` on a daemon).
func codecOpsPoint(cfg CodecConfig, codec wire.Codec, pad int) (float64, error) {
	const criteria = "punch.rsrc.arch = sun"
	svc, err := newService(cfg.Machines, 0, 1)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	if err := svc.Precreate(criteria); err != nil {
		return 0, err
	}
	srv, err := core.ServeOpts(svc, "127.0.0.1:0", cfg.Profile, wire.ServeOptions{Codecs: []wire.Codec{codec}})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli := wire.NewClientOpts(func() (net.Conn, error) {
		return (netsim.Dialer{Profile: cfg.Profile}).Dial(srv.Addr())
	}, wire.ClientOptions{Codecs: []wire.Codec{codec}})
	defer cli.Close()
	if err := cli.Connect(); err != nil {
		return 0, err
	}
	if got := cli.CodecName(); got != codec.Name() {
		return 0, fmt.Errorf("negotiated %q, want %q", got, codec.Name())
	}

	req := codecRequest(criteria, pad)
	rec := metrics.NewRecorder()
	start := time.Now()
	err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(client, iter int) error {
		qr, err := wire.Query.Call(context.Background(), cli, &req)
		if err != nil {
			return err
		}
		if qr.Lease == nil {
			return fmt.Errorf("no lease granted")
		}
		_, err = wire.Release.Call(context.Background(), cli, &wire.ReleaseRequest{Lease: *qr.Lease, Shadow: qr.Shadow})
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("codec %s pad %d: %w", codec.Name(), pad, err)
	}
	return float64(cfg.Clients*cfg.OpsPerClient) / elapsed.Seconds(), nil
}

// codecFramesPoint measures raw frames/s through one codec: each
// iteration encodes a representative request frame, reads it back, and
// decodes the payload — both ends of one frame's life, no sockets.
func codecFramesPoint(codec wire.Codec, pad, iters int) float64 {
	framer := wire.NewFramer(codec)
	req := codecRequest("punch.rsrc.arch = sun", pad)
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		env, _ := wire.NewEnvelope(wire.TypeQuery, uint64(i), req)
		if err := framer.WriteFrame(&buf, env); err != nil {
			return 0
		}
		got, err := framer.ReadFrame(&buf)
		if err != nil {
			return 0
		}
		var out wire.QueryRequest
		if err := got.Decode(&out); err != nil {
			return 0
		}
	}
	return float64(iters) / time.Since(start).Seconds()
}

// codecRequest pads a representative query request to the target payload
// size; the ballast travels in the delegation metadata the service
// ignores.
func codecRequest(criteria string, pad int) wire.QueryRequest {
	req := wire.QueryRequest{Text: criteria}
	if pad > 0 {
		req.Visited = []string{strings.Repeat("x", pad)}
	}
	return req
}
