package poolmgr

// The delegation ladder. The paper's pool manager resolves a local miss
// one way: it forwards the query to a peer, carrying a visited list and a
// TTL. Every peer call of a resolution goes through one function,
// delegate, which launches each call as a branch and takes the first
// granted lease:
//
//   - width 1 (Config.Fanout <= 1, the default) is the paper's serial walk:
//     one peer at a time, the next only after the previous failed;
//   - a wider ladder races that many peers, first win cancelling the rest,
//     losing branches' leases released back to their peers, and a hedge
//     delay staggering launches so the common case (the first peer can
//     satisfy) costs no extra load;
//   - the directed hop to a domain's owner is the ladder over the owner
//     alone.
//
// The visited list guarantees no manager sees a query twice, the TTL
// bounds total hops, and an ErrTTLExpired from any branch fails the whole
// query immediately.

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

// stringSet answers visited-list membership in O(1), where a linear scan
// would make the hot path O(visited²) as fleets grow.
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
// array a peer (or a concurrent branch) still reads, and append can
// silently share backing storage between diverging branches.
func extendVisited(visited []string, name string) []string {
	out := make([]string, len(visited)+1)
	copy(out, visited)
	out[len(visited)] = name
	return out
}

// ForwardContext is Forward with cancellation; it implements
// directory.Forwarder. Cancelling ctx abandons the resolution (in-flight
// branches are called off where the peer supports it, and any lease that
// lands after the cancel is released, not leaked). A lease won through a
// peer comes back as a copy whose id names the peer as its last hop (see
// leaseroute.go).
func (m *Manager) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	lease, err := m.forward(ctx, q, ttl, visited)
	if err != nil {
		m.failed.Add(1)
	}
	return lease, err
}

// forward resolves the query; ForwardContext counts its failures.
func (m *Manager) forward(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	if ttl <= 0 {
		return nil, ErrTTLExpired
	}
	vset := newStringSet(visited)
	if vset.has(m.name) {
		return nil, fmt.Errorf("poolmgr %s: query already visited this manager", m.name)
	}
	// sent is what every hop carries: the caller's list, this manager, and
	// each peer this manager already sent the query to. It is built only
	// when a hop launches, so a local hit allocates none of it.
	var sent []string

	// Directed hop: when the ownership table pins the query's domain on a
	// remote peer, that peer's white pages are the only ones holding the
	// domain's records, so the ladder runs over the owner alone before
	// local pools are scanned. A miss (owner overloaded, owner not dialed)
	// falls back to local resolve, then to the ladder over the remaining
	// peers, with the owner visited. A hop that would leave at TTL 0 is
	// skipped, so local resolve still runs.
	if m.routes != nil && ttl > 1 {
		if domain, routable := route.DomainOf(q); routable {
			if owner, ok := m.routes.Owner(domain); ok && owner != m.name && !vset.has(owner) {
				if peer := m.peerByName(owner); peer != nil {
					sent = extendVisited(visited, m.name)
					m.fstats.Directed()
					lease, _, err := m.delegate(ctx, q, ttl-1, sent, []directory.Forwarder{peer}, 1, 0)
					if err == nil {
						m.fstats.DirectedWin(owner)
						return lease, nil
					}
					m.fstats.DirectedMiss()
					if errors.Is(err, ErrTTLExpired) {
						return nil, err
					}
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					sent = extendVisited(sent, owner)
					vset.add(owner)
				}
			}
		}
	}

	if lease, err := m.resolveLocal(query.Name(q), q); err == nil {
		m.resolved.Add(1)
		return lease, nil
	}

	// Local resolution failed: delegate to the unvisited peers listed in
	// the directory.
	if sent == nil {
		sent = extendVisited(visited, m.name)
	}
	var peers []directory.Forwarder
	for _, peer := range m.dir.Peers() {
		if peer.Name() == m.name || vset.has(peer.Name()) {
			continue
		}
		peers = append(peers, peer)
	}
	lease, winner, err := m.delegate(ctx, q, ttl-1, sent, peers, m.fanout, m.hedgeDelay)
	if err == nil {
		m.fstats.Win(winner)
	}
	return lease, err
}

// fanResult is one branch's outcome.
type fanResult struct {
	peer  directory.Forwarder
	lease *pool.Lease
	err   error
}

// delegate is the delegation ladder. It launches the candidates' calls in
// order as branches, at most width in flight, each on its own goroutine
// unless nothing could race it or call it off, and takes the first
// granted lease. A failed branch is replaced by the next candidate at once, so
// width bounds concurrency, not attempts; a positive hedge staggers the
// launches after the first. It returns the lease as won through its peer,
// and that peer's name.
//
// Each branch carries visited plus every candidate launched before it,
// in a copy of its own. A ttl of zero or less launches nothing: the hop
// could only fail, so the query has. An ErrTTLExpired from any branch, or
// a cancelled ctx, fails the query at once; branches still in flight are
// called off and their late leases released (see drainLosers).
func (m *Manager) delegate(ctx context.Context, q *query.Query, ttl int, visited []string, peers []directory.Forwarder, width int, hedge time.Duration) (*pool.Lease, string, error) {
	if ttl <= 0 {
		return nil, "", ErrTTLExpired
	}
	if len(peers) == 0 {
		return nil, "", ErrUnresolvable
	}
	width = max(1, min(width, len(peers)))
	if width > 1 {
		// Only a race has losers to call off; at width 1 the caller's ctx
		// reaches the one branch in flight.
		m.fstats.Fanout()
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	// Buffered for every candidate: a branch can always deliver its
	// result and exit, even after the winner returned and nothing reads.
	results := make(chan fanResult, len(peers))
	next, inflight := 0, 0
	launch := func() {
		peer := peers[next]
		if next > 0 {
			visited = extendVisited(visited, peers[next-1].Name())
		}
		next++
		inflight++
		m.forwarded.Add(1)
		m.fstats.Forwarded(peer.Name())
		branch := func(visited []string) {
			lease, err := peer.ForwardContext(ctx, q, ttl, visited)
			results <- fanResult{peer: peer, lease: lease, err: err}
		}
		if width == 1 && ctx.Done() == nil {
			// Nothing can race this branch or call it off, so it runs
			// here: a directed hop on a plain Resolve spawns nothing.
			branch(visited)
		} else {
			go branch(visited)
		}
	}
	// settle ends the ladder, handing the branches still in flight to a
	// reaper that releases whatever leases they deliver.
	settle := func(lease *pool.Lease, winner string, err error) (*pool.Lease, string, error) {
		if inflight > 0 {
			go m.drainLosers(results, inflight)
		}
		return lease, winner, err
	}

	launch()
	var hedgeT *time.Timer
	var hedgeC <-chan time.Time
	if hedge > 0 && width > 1 {
		hedgeT = time.NewTimer(hedge)
		hedgeC = hedgeT.C
		defer hedgeT.Stop()
	} else {
		for inflight < width {
			launch()
		}
	}
	for {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				return settle(viaPeer(r.lease, r.peer.Name()), r.peer.Name(), nil)
			}
			m.fstats.Failure(r.peer.Name())
			if errors.Is(r.err, ErrTTLExpired) {
				// The hop budget is spent somewhere down this branch; per
				// the paper the request has failed, so do not wait out (or
				// start) other branches.
				return settle(nil, "", r.err)
			}
			if err := ctx.Err(); err != nil {
				return settle(nil, "", err)
			}
			if next < len(peers) {
				launch() // immediate replacement keeps the width busy
			} else if inflight == 0 {
				return nil, "", ErrUnresolvable
			}
		case <-hedgeC:
			if inflight < width && next < len(peers) {
				m.fstats.HedgeFired()
				launch()
			}
			if inflight < width && next < len(peers) {
				hedgeT.Reset(hedge)
			} else {
				hedgeC = nil
			}
		case <-ctx.Done():
			return settle(nil, "", ctx.Err())
		}
	}
}

// drainLosers reaps the branches still in flight after the ladder settled:
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
