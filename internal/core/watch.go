package core

// The watch endpoint pushes the registry change stream over the wire, so a
// remote consumer (a federated peer's pool layer, a fleet dashboard) keeps
// a replica fresh with deltas instead of polling full snapshots. One
// subscription rides a wire stream: the server parks a registry
// Subscription behind it and forwards coalesced event batches as
// watch-events frames; a resync marker (ring overflow, wholesale Load)
// travels as its own frame and tells the consumer to re-baseline.
//
// The client half implements registry.WatchTransport, which is everything
// registry.RemoteWatch needs to maintain a replica: subscribe, and fetch
// snapshots for baselines (and for ForcePoll's periodic fetches).

import (
	"context"
	"errors"
	"fmt"

	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// watchChunk caps events per watch-events frame so a large coalesced batch
// (worst case: every machine in a big registry changed between polls)
// never exceeds MaxFrame.
const watchChunk = 1024

// serveWatch runs one watch subscription on a server connection. env is
// the subscribing watch request; the handler streams until the peer
// cancels, the connection tears down, or a send fails.
func (svc *Service) serveWatch(env *wire.Envelope, st *wire.ServerStream) {
	var req wire.WatchRequest
	if err := env.Decode(&req); err != nil {
		_ = st.Send(wire.ErrorEnvelope(st.ID(), err))
		return
	}
	var conds []query.RsrcCond
	if req.Filter != "" {
		q, err := query.ParseBasic(req.Filter)
		if err != nil {
			_ = st.Send(wire.ErrorEnvelope(st.ID(), fmt.Errorf("core: watch filter: %w", err)))
			return
		}
		conds = query.CompileRsrc(q)
	}
	db := svc.DB()
	sub := db.Watch(req.Ring)
	defer sub.Close()

	send := func(m *wire.WatchEvents) error {
		return st.Send(&wire.Envelope{Type: wire.TypeWatchEvents, ID: st.ID(), Msg: m})
	}
	// The ack goes out after the subscription is live: the client baselines
	// with a snapshot fetch on receipt, and every mutation after this point
	// is already queued on sub, so nothing falls in the gap between the two
	// (replayed events are absorbed by the replica's idempotent upserts).
	if err := send(&wire.WatchEvents{Ack: true}); err != nil {
		return
	}
	for {
		select {
		case <-st.Done():
			return
		case <-sub.Ready():
		}
		evs, resync := sub.Poll()
		if resync {
			if err := send(&wire.WatchEvents{Resync: true}); err != nil {
				return
			}
			continue
		}
		wevs := registry.ResolveEvents(db, evs, conds)
		for len(wevs) > 0 {
			n := min(len(wevs), watchChunk)
			if err := send(&wire.WatchEvents{Events: wire.EventSet{Events: wevs[:n]}}); err != nil {
				return
			}
			wevs = wevs[n:]
		}
	}
}

// clientWatchStream adapts one wire stream to registry.WatchStream.
type clientWatchStream struct {
	cs *wire.ClientStream
}

func (ws *clientWatchStream) Recv() (registry.WatchBatch, error) {
	for {
		env, err := ws.cs.Recv(context.Background())
		if err != nil {
			return registry.WatchBatch{}, err
		}
		var we wire.WatchEvents
		if err := env.Decode(&we); err != nil {
			return registry.WatchBatch{}, err
		}
		if we.Ack {
			continue // subscription handshake frame; not a batch
		}
		return registry.WatchBatch{Resync: we.Resync, Events: we.Events.Events}, nil
	}
}

func (ws *clientWatchStream) Close() error { return ws.cs.Close() }

// WatchSubscribe opens a change-stream subscription on the server; it
// implements registry.WatchTransport so a registry.RemoteWatch can drive
// this client directly.
func (c *Client) WatchSubscribe(ctx context.Context, filter string, ring int) (registry.WatchStream, error) {
	cs, err := c.c.Stream(wire.TypeWatch, wire.WatchRequest{Filter: filter, Ring: ring}, 0)
	if err != nil {
		return nil, err
	}
	env, err := cs.Recv(ctx)
	if err != nil {
		_ = cs.Close()
		return nil, err
	}
	var we wire.WatchEvents
	if err := env.Decode(&we); err != nil || !we.Ack {
		_ = cs.Close()
		if err == nil {
			err = errors.New("core: watch subscribe: expected ack frame")
		}
		return nil, err
	}
	return &clientWatchStream{cs: cs}, nil
}

// snapshotPage bounds one select page of a snapshot fetch: a fleet-wide
// record batch must stay under wire.MaxFrame, which an unpaged select
// exceeds somewhere between 5k and 10k machines.
const snapshotPage = 2048

// FetchSnapshot returns the records matching filter; it is the resync
// baseline and the poll mode of registry.RemoteWatch. Large fleets
// are fetched in sorted-name pages. Paging under concurrent mutation is
// not an atomic cut — a record added or removed mid-fetch can be missed
// or duplicated across page boundaries — which the consumers tolerate by
// construction: replica upserts are idempotent, and anything missed
// lands with the watch events queued behind the baseline (or with the
// next poll). On the serving side each page is one paged registry read:
// a predicate test per candidate record for the filter and the total, and
// a clone of the records of that page only.
func (c *Client) FetchSnapshot(ctx context.Context, filter string) ([]*registry.Machine, error) {
	var out []*registry.Machine
	for {
		ms, total, err := c.SelectPage(ctx, filter, snapshotPage, len(out), false)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
		if len(ms) < snapshotPage || len(out) >= total {
			return out, nil
		}
	}
}
