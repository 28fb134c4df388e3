package poolmgr

// Parallel first-win delegation. The paper's serial peer walk pays one
// full WAN round trip per miss per peer — worst case TTL×RTT before a
// query lands on the peer that has capacity. The fan-out path races a
// bounded number of peers concurrently: the first granted lease wins and
// cancels the rest, losing branches' leases are released back to their
// peers, and a configurable hedge delay staggers the launches so the
// common case (the first peer can satisfy) costs no extra load.
//
// Semantics preserved from the serial walk: the visited list still
// guarantees no manager sees a query twice (every branch shares one
// immutable visited slice — extendVisited copies, never mutates), the TTL
// still bounds total hops, and an ErrTTLExpired from any branch still
// fails the whole query immediately.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"actyp/internal/directory"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/route"
)

// stringSet answers visited-list membership in O(1); the serial walk's
// linear scans made the hot path O(visited²) once fleets grew.
type stringSet map[string]struct{}

// newStringSet returns nil for an empty list: a query resolved where it
// was submitted carries no visited list, and a nil set answers has without
// allocating.
func newStringSet(items []string) stringSet {
	if len(items) == 0 {
		return nil
	}
	s := make(stringSet, len(items)+1)
	for _, it := range items {
		s[it] = struct{}{}
	}
	return s
}

func (s stringSet) has(name string) bool { _, ok := s[name]; return ok }

// add inserts name, allocating the set on first use.
func (s *stringSet) add(name string) {
	if *s == nil {
		*s = make(stringSet, 2)
	}
	(*s)[name] = struct{}{}
}

// extendVisited returns visited plus name in a freshly allocated slice.
// Appending in place is unsafe twice over: the caller's slice may alias an
// array a peer (or a concurrent fan-out branch) still reads, and append
// can silently share backing storage between diverging branches.
func extendVisited(visited []string, name string) []string {
	out := make([]string, len(visited)+1)
	copy(out, visited)
	out[len(visited)] = name
	return out
}

// ForwardContext is Forward with cancellation; it implements
// directory.ContextForwarder. Cancelling ctx abandons the resolution
// (in-flight delegation branches are called off where the peer supports
// it, and any lease that lands after the cancel is released, not leaked).
// A lease won through a peer comes back as a copy whose id names the peer
// as its last hop (see leaseroute.go).
func (m *Manager) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	if ttl <= 0 {
		m.failed.Add(1)
		return nil, ErrTTLExpired
	}
	vset := newStringSet(visited)
	if vset.has(m.name) {
		m.failed.Add(1)
		return nil, fmt.Errorf("poolmgr %s: query already visited this manager", m.name)
	}

	// Directed hop: when the ownership table pins the query's domain on a
	// remote peer, that peer's white pages are the only ones holding the
	// domain's records — go straight there, before scanning local pools
	// and instead of racing every peer. One hop of TTL is spent, exactly
	// as a serial delegation would. A failed hop (owner overloaded, owner
	// not dialed) falls back to the pre-partition path — local resolve,
	// then fan-out over the remaining peers — with the owner marked
	// visited so no branch retries it.
	if m.routes != nil {
		if domain, routable := route.DomainOf(q); routable {
			if owner, ok := m.routes.Owner(domain); ok && owner != m.name && !vset.has(owner) {
				if peer := m.peerByName(owner); peer != nil {
					m.forwarded.Add(1)
					m.fstats.Directed(owner)
					lease, err := forwardPeer(ctx, peer, q, ttl-1, extendVisited(visited, m.name))
					if err == nil {
						m.fstats.DirectedWin(owner)
						return viaPeer(lease, owner), nil
					}
					m.fstats.DirectedMiss(owner)
					if errors.Is(err, ErrTTLExpired) {
						m.failed.Add(1)
						return nil, err
					}
					if ctx.Err() != nil {
						m.failed.Add(1)
						return nil, ctx.Err()
					}
					visited = extendVisited(visited, owner)
					vset.add(owner)
				}
			}
		}
	}

	name := query.Name(q)
	if lease, err := m.resolveLocal(name, q); err == nil {
		m.resolved.Add(1)
		return lease, nil
	}

	// Local resolution failed: attach our name, decrement the TTL, and
	// delegate to the unvisited peers listed in the directory.
	visited = extendVisited(visited, m.name)
	vset.add(m.name)
	ttl--
	var peers []directory.Forwarder
	for _, peer := range m.dir.Peers() {
		if peer.Name() == m.name || vset.has(peer.Name()) {
			continue
		}
		peers = append(peers, peer)
	}
	if len(peers) == 0 {
		m.failed.Add(1)
		if ttl <= 0 {
			return nil, ErrTTLExpired
		}
		return nil, ErrUnresolvable
	}
	if m.fanout <= 1 || len(peers) == 1 {
		return m.delegateSerial(ctx, q, ttl, visited, peers)
	}
	return m.delegateFanout(ctx, q, ttl, visited, peers)
}

// delegateSerial walks the candidate peers one at a time — the paper's
// policy, kept bit-for-bit for fanout<=1 (and as the differential
// baseline the benchmark measures the fan-out against).
func (m *Manager) delegateSerial(ctx context.Context, q *query.Query, ttl int, visited []string, peers []directory.Forwarder) (*pool.Lease, error) {
	for _, peer := range peers {
		m.forwarded.Add(1)
		m.fstats.Forwarded(peer.Name())
		lease, err := forwardPeer(ctx, peer, q, ttl, visited)
		if err == nil {
			m.fstats.Win(peer.Name())
			return viaPeer(lease, peer.Name()), nil
		}
		m.fstats.Failure(peer.Name())
		if errors.Is(err, ErrTTLExpired) {
			m.failed.Add(1)
			return nil, err
		}
		if ctx.Err() != nil {
			m.failed.Add(1)
			return nil, ctx.Err()
		}
		// Peer failed for another reason; it recorded itself in its own
		// visited handling, but the next branch's copy must also skip it.
		visited = extendVisited(visited, peer.Name())
	}
	m.failed.Add(1)
	if ttl <= 0 {
		return nil, ErrTTLExpired
	}
	return nil, ErrUnresolvable
}

// fanResult is one delegation branch's outcome.
type fanResult struct {
	peer  directory.Forwarder
	lease *pool.Lease
	err   error
}

// delegateFanout races up to m.fanout peers concurrently; the first
// granted lease wins and cancels the rest. Branch launches stagger by
// m.hedgeDelay (zero launches the full width at once), and a failed
// branch is replaced by the next candidate immediately, so the width
// bounds concurrency, not attempts.
func (m *Manager) delegateFanout(ctx context.Context, q *query.Query, ttl int, visited []string, peers []directory.Forwarder) (*pool.Lease, error) {
	ctx, cancel := context.WithCancel(ctx)
	m.fstats.Fanout()
	width := min(m.fanout, len(peers))
	// Buffered for every candidate: a branch can always deliver its
	// result and exit, even after the winner returned and nothing reads.
	results := make(chan fanResult, len(peers))
	next, inflight := 0, 0
	launch := func() {
		peer := peers[next]
		next++
		inflight++
		m.forwarded.Add(1)
		m.fstats.Forwarded(peer.Name())
		go func() {
			lease, err := forwardPeer(ctx, peer, q, ttl, visited)
			results <- fanResult{peer: peer, lease: lease, err: err}
		}()
	}

	launch()
	var hedge *time.Timer
	var hedgeC <-chan time.Time
	if m.hedgeDelay > 0 {
		hedge = time.NewTimer(m.hedgeDelay)
		hedgeC = hedge.C
		defer hedge.Stop()
	} else {
		for inflight < width {
			launch()
		}
	}

	// finish settles the race: cancel the outstanding branches and hand
	// them to a reaper that releases whatever leases they still deliver.
	finish := func(lease *pool.Lease, err error) (*pool.Lease, error) {
		cancel()
		if inflight > 0 {
			go m.drainLosers(results, inflight)
		}
		return lease, err
	}
	for {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				m.fstats.Win(r.peer.Name())
				return finish(viaPeer(r.lease, r.peer.Name()), nil)
			}
			m.fstats.Failure(r.peer.Name())
			if errors.Is(r.err, ErrTTLExpired) {
				// The query's hop budget is spent somewhere down this
				// branch; per the paper the request has failed, so do not
				// wait out (or start) other branches.
				m.failed.Add(1)
				return finish(nil, r.err)
			}
			if next < len(peers) {
				launch() // immediate replacement keeps the width busy
			} else if inflight == 0 {
				cancel()
				m.failed.Add(1)
				if ttl <= 0 {
					return nil, ErrTTLExpired
				}
				return nil, ErrUnresolvable
			}
		case <-hedgeC:
			if inflight < width && next < len(peers) {
				m.fstats.HedgeFired()
				launch()
			}
			if inflight < width && next < len(peers) {
				hedge.Reset(m.hedgeDelay)
			} else {
				hedgeC = nil
			}
		case <-ctx.Done():
			m.failed.Add(1)
			return finish(nil, ctx.Err())
		}
	}
}

// drainLosers reaps the branches still in flight after the race settled:
// each one either failed (nothing to do) or granted a lease on its peer,
// which must go back — a lease nobody will use is leaked remote capacity.
// Releases route like any lease won through the peer (see routeLease), so
// a loser lease in a domain that just changed hands still reaches the
// instance that holds it.
func (m *Manager) drainLosers(results <-chan fanResult, inflight int) {
	for i := 0; i < inflight; i++ {
		r := <-results
		m.fstats.LoserCancelled(r.peer.Name())
		if r.err == nil && r.lease != nil {
			_ = m.Release(viaPeer(r.lease, r.peer.Name()))
		}
	}
}

// forwardPeer delegates one hop, through the cancellable entry point when
// the peer offers it.
func forwardPeer(ctx context.Context, peer directory.Forwarder, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	if cf, ok := peer.(directory.ContextForwarder); ok {
		return cf.ForwardContext(ctx, q, ttl, visited)
	}
	return peer.Forward(q, ttl, visited)
}
