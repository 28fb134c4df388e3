package poolmgr

// Lease routes. A lease is a capability (Section 2: "an IP address, a TCP
// port number, and a session-specific access key"), and the way back to
// the pool that granted it rides in its id. A manager that wins a lease
// through peer P hands upward a copy whose id is "<id>|<P>"; a lease won
// over two hops reads "<id>|<C>|<B>" at the first manager. Release and
// Renew peel one hop per manager, so every node on the way back needs
// nothing but the id: no table, no journal record, nothing to recover.
//
// Parsing is unambiguous because pool-minted ids end in ":<seq>:<8 hex>"
// (see pool.Pool.Allocate): an id with that tail carries no hops, however
// many '|' the pool instance name before it holds (query operands can).
// Otherwise the last hop is the text after the last '|'. Node names that
// contain '|' or end like a lease tail are refused (CheckNodeName), so
// appending a valid name always parses back to exactly that name.
//
// An empty last hop ("<id>|") marks an id already forwarded to its
// domain's owner; see routeLease, rule 3.

import (
	"errors"
	"fmt"
	"strings"

	"actyp/internal/directory"
	"actyp/internal/pool"
	"actyp/internal/route"
	"actyp/internal/wire"
)

const hopSep = "|"

// hasLeaseTail reports whether id ends the way every pool-minted lease id
// ends: ':', a decimal sequence number, ':', 8 lowercase hex digits.
func hasLeaseTail(id string) bool {
	const keyLen = 8
	if len(id) < keyLen+3 {
		return false
	}
	for i := len(id) - keyLen; i < len(id); i++ {
		if c := id[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	i := len(id) - keyLen - 1
	if id[i] != ':' {
		return false
	}
	j := i
	for j > 0 && '0' <= id[j-1] && id[j-1] <= '9' {
		j--
	}
	return j < i && j > 0 && id[j-1] == ':'
}

// splitHop splits a lease id into the id the last hop knows and that hop.
// ok is false for an id without hops; an empty hop is the owner mark.
func splitHop(id string) (inner, hop string, ok bool) {
	if hasLeaseTail(id) {
		return id, "", false
	}
	i := strings.LastIndex(id, hopSep)
	if i < 0 {
		return id, "", false
	}
	return id[:i], id[i+1:], true
}

// innermostID strips every hop (and the owner mark) and returns the id
// the granting pool minted. ok is false when the id carries more than
// limit hops; peeling stops there.
func innermostID(id string, limit int) (inner string, ok bool) {
	for hops := 0; ; hops++ {
		in, _, more := splitHop(id)
		if !more {
			return id, true
		}
		if hops == limit {
			return id, false
		}
		id = in
	}
}

// maxHops is the most hops a lease id may carry at this manager. A win
// through peers spends one TTL unit per hop, so a lease won under a TTL
// of T carries at most T-1 hops (or just the owner mark); the bound
// leaves room for peers whose TTL exceeds this manager's by up to two.
// An id past it was written by a client or peer, not by a win, and is
// refused before any hop is tried: forwarding it would nest one
// synchronous call per hop across the stage connections.
func (m *Manager) maxHops() int { return m.ttl + 1 }

// CheckNodeName rejects a pool-manager name that could not be told apart
// from the rest of a lease id once appended as a hop: an empty name, one
// containing '|', or one ending like a pool-minted lease id.
func CheckNodeName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("poolmgr: empty node name")
	case strings.Contains(name, hopSep):
		return fmt.Errorf("poolmgr: node name %q contains %q", name, hopSep)
	case hasLeaseTail(name):
		return fmt.Errorf("poolmgr: node name %q ends like a lease id", name)
	}
	return nil
}

// viaPeer returns a copy of a lease won through the named peer, its id
// extended by the hop. The peer's lease is not modified.
func viaPeer(lease *pool.Lease, peer string) *pool.Lease {
	return withID(lease, lease.ID+hopSep+peer)
}

// withID returns a copy of lease carrying id.
func withID(lease *pool.Lease, id string) *pool.Lease {
	out := *lease
	out.ID = id
	return &out
}

// Release routes a lease release to the instance that granted it; see
// routeLease.
func (m *Manager) Release(lease *pool.Lease) error {
	return m.routeLease(lease, false)
}

// Renew extends a lease's lifetime at the pool that granted it, along the
// route its release would take; see routeLease.
func (m *Manager) Renew(lease *pool.Lease) error {
	return m.routeLease(lease, true)
}

// routeLease carries a release or renewal to the pool holding the lease,
// whether the call comes from a client or from a peer's pm-release or
// pm-renew. Its rules, in order:
//
//  1. Local first: when this node's instance lease.Pool holds the
//     innermost id, the call runs there.
//  2. Last hop: otherwise, an id with a last hop H goes to H with the hop
//     stripped. An answer from H (a *wire.RemoteError) is final.
//  3. Owner, once: an id without hops, or whose hop is not a dialed peer
//     or failed in transport, goes to the owner of the domain lease.Pool
//     pins — unless that is this node, is not a dialed peer, or the id is
//     marked as already forwarded to an owner. The owner gets the
//     innermost id, marked.
//
// Every chain is bounded by its hop count plus one, so a double release
// or a release after a reap cannot loop; the hop count itself is bounded
// by maxHops, checked before any rule runs.
func (m *Manager) routeLease(lease *pool.Lease, renew bool) error {
	if lease == nil {
		return fmt.Errorf("poolmgr %s: nil lease", m.name)
	}
	inner, ok := innermostID(lease.ID, m.maxHops())
	if !ok {
		return fmt.Errorf("poolmgr %s: lease on %s carries more than %d hops", m.name, lease.Pool, m.maxHops())
	}
	held, err := m.leaseLocal(lease.Pool, inner, renew)
	if held {
		return err
	}
	rest, hop, hasHop := splitHop(lease.ID)
	if hasHop && hop != "" {
		if peer := m.peerByName(hop); peer != nil {
			perr := m.leasePeer(peer, withID(lease, rest), renew)
			if perr == nil || answered(perr) {
				return perr
			}
			err = perr
		}
	}
	if marked := hasHop && hop == ""; !marked && m.routes != nil {
		if domain, ok := route.PoolDomain(lease.Pool); ok {
			if owner, ok := m.routes.Owner(domain); ok && owner != m.name {
				if peer := m.peerByName(owner); peer != nil {
					return m.leasePeer(peer, withID(lease, inner+hopSep), renew)
				}
			}
		}
	}
	if err == nil {
		// Built only here, not in leaseLocal: a lease forwarded by its id
		// misses locally on every call, and the text is then moot.
		err = fmt.Errorf("poolmgr %s: unknown pool instance %s", m.name, lease.Pool)
	}
	return err
}

// answered reports whether a peer replied with err, as opposed to the
// call failing in transport.
func answered(err error) bool {
	var remote *wire.RemoteError
	return errors.As(err, &remote)
}

// leaseLocal releases or renews id at this node's instance. held is false
// when the instance is unknown here (err is nil) or does not hold the
// lease (err wraps pool.ErrUnknownLease).
func (m *Manager) leaseLocal(instance, id string, renew bool) (held bool, err error) {
	ref, ok := m.dir.ByInstance(instance)
	if !ok {
		return false, nil
	}
	if ref.Local == nil {
		return true, fmt.Errorf("poolmgr %s: instance %s has no local handle", m.name, instance)
	}
	if renew {
		r, ok := ref.Local.(interface{ Renew(leaseID string) error })
		if !ok {
			return true, fmt.Errorf("poolmgr %s: instance %s does not support renewal", m.name, instance)
		}
		err = r.Renew(id)
	} else {
		err = ref.Local.Release(id)
	}
	return !errors.Is(err, pool.ErrUnknownLease), err
}

// leasePeer sends a release or renewal to a peer, naming it in the error.
func (m *Manager) leasePeer(peer directory.Forwarder, lease *pool.Lease, renew bool) error {
	verb, call := "release", peer.Release
	if renew {
		verb, call = "renew", peer.Renew
	}
	if err := call(lease); err != nil {
		return fmt.Errorf("poolmgr %s: %s lease %s through peer %s: %w", m.name, verb, lease.ID, peer.Name(), err)
	}
	return nil
}

// peerByName finds the directory peer carrying the name, nil when absent.
func (m *Manager) peerByName(name string) directory.Forwarder {
	if name == "" {
		return nil
	}
	for _, peer := range m.dir.Peers() {
		if peer.Name() == name {
			return peer
		}
	}
	return nil
}
