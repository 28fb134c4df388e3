package experiments

import (
	"errors"
	"fmt"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// WAN byte efficiency: the paper's headline deployment separates pipeline
// stages by a transatlantic link, where a reply pays for its size twice —
// serialization into a bounded-bandwidth pipe, then propagation. This
// experiment drives the record-batch endpoint ("select") across payload
// sizes, network profiles, and wire encodings: the full per-record
// encoding (the pre-delta baseline), the delta/dictionary batch, and the
// delta batch under negotiated flate compression. On the bandwidth-aware
// WAN profile the byte savings become a wall-clock win; the bytes-per-op
// series (from metrics.WireStats on the client connection) shows the
// reduction directly, independent of the host's speed.

// WanLeg is one wire-encoding leg of the sweep.
type WanLeg struct {
	Name string // series label ("binary full", "binary delta", ...)
	Spec string // codec spec for wire.CodecByName ("binary", "binary+flate")
	Full bool   // pin the full per-record oracle encoding
}

// WanProfile is one network leg of the sweep.
type WanProfile struct {
	Name    string
	Profile netsim.Profile
}

// WanConfig parameterizes the WAN wire sweep.
type WanConfig struct {
	Machines     int   // fleet size (bounds the largest batch)
	Batches      []int // records per select reply (x axis, via SelectRequest.Limit)
	Clients      int   // concurrent callers sharing ONE connection
	OpsPerClient int   // measured selects per caller per point
	Legs         []WanLeg
	Profiles     []WanProfile
}

// DefaultWan sweeps the three encodings over LAN (no bandwidth term) and
// the bandwidth-modeled WAN. The middle batch sizes put the baseline
// reply in the 8KiB class the regression bar targets.
func DefaultWan() WanConfig {
	return WanConfig{
		Machines:     256,
		Batches:      []int{4, 16, 64},
		Clients:      8,
		OpsPerClient: 25,
		Legs: []WanLeg{
			{Name: "binary full", Spec: "binary", Full: true},
			{Name: "binary delta", Spec: "binary"},
			{Name: "binary+flate delta", Spec: "binary+flate"},
		},
		Profiles: []WanProfile{
			{Name: "lan", Profile: netsim.LAN()},
			{Name: "wan", Profile: netsim.WAN()},
		},
	}
}

// WanResult is the sweep's output: ops/s and wire bytes per op, one
// series per profile/leg pair, records-per-reply on the x axis.
type WanResult struct {
	Ops   []metrics.Series
	Bytes []metrics.Series
}

// wanCheckBytes is the reply-size class the regression bar is asserted
// at: the first WAN point whose baseline costs at least this many wire
// bytes per op (falling back to the largest batch).
const wanCheckBytes = 8 << 10

// Check asserts the figure's regression bar: at the 8KiB-class WAN
// point, the compressed+delta leg must move at least 5x fewer bytes per
// op than the full baseline, or complete at least 3x the ops/s. Bytes
// are the primary criterion — they are host-speed independent.
func (r WanResult) Check() error {
	baseB := r.find(r.Bytes, "wan/binary full")
	compB := r.find(r.Bytes, "wan/binary+flate delta")
	baseOps := r.find(r.Ops, "wan/binary full")
	compOps := r.find(r.Ops, "wan/binary+flate delta")
	if baseB == nil || compB == nil || baseOps == nil || compOps == nil {
		return errors.New("wan: missing a wan-profile series to assert")
	}
	idx := len(baseB.Points) - 1
	for i, p := range baseB.Points {
		if p.Y >= wanCheckBytes {
			idx = i
			break
		}
	}
	if idx >= len(compB.Points) || idx >= len(baseOps.Points) || idx >= len(compOps.Points) {
		return errors.New("wan: series lengths diverge")
	}
	var bytesGain, opsGain float64
	if compB.Points[idx].Y > 0 {
		bytesGain = baseB.Points[idx].Y / compB.Points[idx].Y
	}
	if baseOps.Points[idx].Y > 0 {
		opsGain = compOps.Points[idx].Y / baseOps.Points[idx].Y
	}
	if bytesGain < 5 && opsGain < 3 {
		return fmt.Errorf("wan: at %g records/reply (baseline %.0f B/op) compressed+delta gained only %.2fx bytes and %.2fx ops/s (need >=5x bytes or >=3x ops)",
			baseB.Points[idx].X, baseB.Points[idx].Y, bytesGain, opsGain)
	}
	return nil
}

func (WanResult) find(series []metrics.Series, label string) *metrics.Series {
	for i := range series {
		if series[i].Label == label {
			return &series[i]
		}
	}
	return nil
}

// WanScale runs the sweep: for each profile, leg, and batch size, a fresh
// service over a DefaultFleetSpec fleet answers closed-loop Select calls
// through one shared connection pinned to the leg's codec, and the
// client-side WireStats turn the same run into a bytes-per-op series.
func WanScale(cfg WanConfig) (WanResult, error) {
	var res WanResult
	if cfg.Machines <= 0 {
		cfg = DefaultWan()
	}
	for _, prof := range cfg.Profiles {
		for _, leg := range cfg.Legs {
			ops := metrics.Series{Label: prof.Name + "/" + leg.Name}
			bytesPer := metrics.Series{Label: prof.Name + "/" + leg.Name}
			for _, batch := range cfg.Batches {
				rate, per, err := wanPoint(cfg, prof.Profile, leg, batch)
				if err != nil {
					return res, fmt.Errorf("wan: %s/%s batch %d: %w", prof.Name, leg.Name, batch, err)
				}
				ops.Add(float64(batch), rate)
				bytesPer.Add(float64(batch), per)
			}
			res.Ops = append(res.Ops, ops)
			res.Bytes = append(res.Bytes, bytesPer)
		}
	}
	return res, nil
}

// wanPoint measures one (profile, leg, batch) point and returns (ops/s,
// wire bytes per op summed over both directions and all codecs — the
// JSON hello handshake included, identically for every leg).
func wanPoint(cfg WanConfig, profile netsim.Profile, leg WanLeg, batch int) (float64, float64, error) {
	codec, err := wire.CodecByName(leg.Spec)
	if err != nil {
		return 0, 0, err
	}
	// A heterogeneous fleet (DefaultFleetSpec cycles archs, domains, and
	// licenses), so the delta codec is measured against realistic record
	// divergence rather than an all-identical fleet.
	db, err := newDB()
	if err != nil {
		return 0, 0, err
	}
	if err := registry.DefaultFleetSpec(cfg.Machines).Populate(db, time.Now()); err != nil {
		return 0, 0, err
	}
	svc, err := core.New(core.Options{DB: db, Seed: 1, PoolEngine: PoolEngine(), RefreshMode: RefreshMode()})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close()
	srv, err := core.ServeOpts(svc, "127.0.0.1:0", profile, wire.ServeOptions{Codecs: []wire.Codec{codec}})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	stats := &metrics.WireStats{}
	cli, err := core.DialOpts(srv.Addr(), profile, core.DialConfig{Codecs: []wire.Codec{codec}, Stats: stats})
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()
	if got := cli.CodecName(); got != codec.Name() {
		return 0, 0, fmt.Errorf("negotiated %q, want %q", got, codec.Name())
	}

	rec := metrics.NewRecorder()
	start := time.Now()
	err = closedLoop(cfg.Clients, cfg.OpsPerClient, rec, func(client, iter int) error {
		ms, _, err := cli.Select("", batch, leg.Full)
		if err != nil {
			return err
		}
		if want := min(batch, cfg.Machines); len(ms) != want {
			return fmt.Errorf("select returned %d records, want %d", len(ms), want)
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	ops := cfg.Clients * cfg.OpsPerClient
	var wireBytes int64
	for _, wc := range stats.Snapshot() {
		wireBytes += wc.BytesIn + wc.BytesOut
	}
	return float64(ops) / elapsed.Seconds(), float64(wireBytes) / float64(ops), nil
}
