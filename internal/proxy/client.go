package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"

	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/wire"
)

// Spawn asks the proxy server at addr to create a pool instance and
// returns the new instance's id and allocation address. A spawn is a rare
// one-shot exchange on a throwaway connection; it piggybacks the request
// on the codec hello, so the exchange negotiates properly and still costs
// a single round trip.
func Spawn(addr string, req wire.SpawnPoolRequest, profile netsim.Profile) (*wire.SpawnPoolReply, error) {
	conn, err := (netsim.Dialer{Profile: profile}).Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: dial %s: %w", addr, err)
	}
	defer conn.Close()
	env, err := wire.NewEnvelope(wire.TypeSpawnPool, 1, req)
	if err != nil {
		return nil, err
	}
	reply, err := wire.CallPiggyback(conn, nil, env)
	if err != nil {
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return nil, fmt.Errorf("proxy: spawn: %s", remote.Message)
		}
		return nil, err
	}
	var sp wire.SpawnPoolReply
	if err := reply.Decode(&sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// RemotePool is the client stub for a pool served by a proxy. It satisfies
// the directory service's Allocator contract, so remote pools register and
// allocate exactly like local ones. It is safe for concurrent use: calls
// multiplex over the single connection with correlated replies, so
// concurrent allocations overlap on the wire instead of queueing behind
// one another.
type RemotePool struct {
	addr string
	c    *wire.Client
}

// NewRemotePool connects a stub to the pool endpoint at addr.
func NewRemotePool(addr string, profile netsim.Profile) (*RemotePool, error) {
	c := wire.NewClient(func() (net.Conn, error) {
		return (netsim.Dialer{Profile: profile}).Dial(addr)
	}, 0)
	if err := c.Connect(); err != nil {
		return nil, fmt.Errorf("proxy: dial pool %s: %w", addr, err)
	}
	return &RemotePool{addr: addr, c: c}, nil
}

// Addr returns the pool endpoint address.
func (r *RemotePool) Addr() string { return r.addr }

// Close drops the connection.
func (r *RemotePool) Close() error { return r.c.Close() }

// Allocate implements the Allocator contract over the wire: the basic
// query travels in its textual form, which round-trips losslessly.
func (r *RemotePool) Allocate(q *query.Query) (*pool.Lease, error) {
	ar, err := methodAlloc.Call(context.Background(), r.c, &allocRequest{Query: q.String()})
	if err != nil {
		return nil, fmt.Errorf("proxy: remote pool: %w", err)
	}
	if ar.Lease == nil {
		return nil, fmt.Errorf("proxy: remote pool returned no lease")
	}
	return ar.Lease, nil
}

// Release implements the Allocator contract.
func (r *RemotePool) Release(leaseID string) error {
	if _, err := methodRelease.Call(context.Background(), r.c, &releaseRequest{LeaseID: leaseID}); err != nil {
		return fmt.Errorf("proxy: remote pool: %w", err)
	}
	return nil
}
