// Package directory implements the local directory service of Section
// 5.2.2: pool managers use it to keep track of resource-pool instances
// (registered under their signature/identifier names) and of peer pool
// managers that queries can be delegated to. Within an administrative
// domain, replicated pipeline stages share information through this
// service.
package directory

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"actyp/internal/pool"
	"actyp/internal/query"
)

// Allocator is the view the directory has of a live resource pool: enough
// to route allocation and release requests. *pool.Pool implements it; the
// networked mode registers RPC stubs instead.
type Allocator interface {
	Allocate(q *query.Query) (*pool.Lease, error)
	Release(leaseID string) error
}

// PoolRef is one registered resource-pool instance.
type PoolRef struct {
	Name     query.PoolName // aggregation criteria name
	Instance string         // unique instance id (e.g. "arch,==/sun#0")
	Addr     string         // host:port for remote instances, "" if in-process
	Local    Allocator      // live handle for in-process instances
}

// Forwarder is the view the directory has of a peer pool manager, used for
// query delegation (Section 5.2.2: "forwards it to one of the pool
// managers listed in the local directory service") and for the leases won
// through it. poolmgr.Manager and the stage's wire stub implement it.
type Forwarder interface {
	// Name identifies the pool manager; it appears in visited lists and
	// as the hop in the ids of leases won through it.
	Name() string
	// ForwardContext continues resolution of the query at this manager.
	// The visited list and TTL travel with the query. A cancelled call
	// returns ctx.Err(); the implementation remains responsible for
	// releasing a lease granted after the cancel landed (it must not
	// orphan capacity on the peer).
	ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error)
	// Release takes back a lease the peer granted: a lease won through it,
	// or a losing branch's late lease.
	Release(lease *pool.Lease) error
	// Renew extends the lifetime of a lease the peer granted, which is
	// how a lease won through it is heartbeated.
	Renew(lease *pool.Lease) error
}

// snapshot is one immutable view of the directory. Readers load it with a
// single atomic pointer read and walk it without locking or copying;
// mutations build a replacement under the write lock. The slices and maps
// inside a published snapshot are never modified again.
type snapshot struct {
	pools      map[string][]PoolRef // name.String() -> instances
	byInstance map[string]PoolRef
	peers      []Forwarder
}

var emptySnapshot = &snapshot{
	pools:      map[string][]PoolRef{},
	byInstance: map[string]PoolRef{},
}

// Service is a concurrency-safe local directory. Reads (Lookup, ByInstance,
// Peers — the per-request resolve path) are lock-free against a
// copy-on-write snapshot; only mutations (Register, Unregister, AddPeer —
// pool lifecycle events, orders of magnitude rarer) take the write lock to
// swap in a rebuilt snapshot.
type Service struct {
	mu   sync.Mutex // serializes mutations only; readers never take it
	snap atomic.Pointer[snapshot]
}

// New returns an empty directory service.
func New() *Service {
	s := &Service{}
	s.snap.Store(emptySnapshot)
	return s
}

// rebuild clones the current snapshot, applies mutate to the clone, and
// publishes it. Callers must hold s.mu.
func (s *Service) rebuild(mutate func(next *snapshot)) {
	cur := s.snap.Load()
	next := &snapshot{
		pools:      make(map[string][]PoolRef, len(cur.pools)),
		byInstance: make(map[string]PoolRef, len(cur.byInstance)),
		peers:      cur.peers, // immutable; AddPeer replaces wholesale
	}
	for k, refs := range cur.pools {
		next.pools[k] = refs // per-name slices are immutable too
	}
	for k, ref := range cur.byInstance {
		next.byInstance[k] = ref
	}
	mutate(next)
	s.snap.Store(next)
}

// Register adds a pool instance. Registering a duplicate instance id fails.
func (s *Service) Register(ref PoolRef) error {
	if ref.Instance == "" {
		return fmt.Errorf("directory: pool ref needs an instance id")
	}
	if ref.Name.IsZero() {
		return fmt.Errorf("directory: pool ref %s needs a name", ref.Instance)
	}
	if ref.Local == nil && ref.Addr == "" {
		return fmt.Errorf("directory: pool ref %s needs a local handle or an address", ref.Instance)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.snap.Load().byInstance[ref.Instance]; dup {
		return fmt.Errorf("directory: instance %s already registered", ref.Instance)
	}
	s.rebuild(func(next *snapshot) {
		key := ref.Name.String()
		old := next.pools[key]
		refs := make([]PoolRef, 0, len(old)+1)
		refs = append(append(refs, old...), ref)
		next.pools[key] = refs
		next.byInstance[ref.Instance] = ref
	})
	return nil
}

// Unregister removes a pool instance; unknown ids are a no-op.
func (s *Service) Unregister(instance string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.snap.Load().byInstance[instance]
	if !ok {
		return
	}
	s.rebuild(func(next *snapshot) {
		delete(next.byInstance, instance)
		key := ref.Name.String()
		old := next.pools[key]
		refs := make([]PoolRef, 0, len(old))
		for _, r := range old {
			if r.Instance != instance {
				refs = append(refs, r)
			}
		}
		if len(refs) == 0 {
			delete(next.pools, key)
		} else {
			next.pools[key] = refs
		}
	})
}

// Lookup returns every registered instance of the named pool. The returned
// slice is a shared immutable snapshot: callers must not modify it.
func (s *Service) Lookup(name query.PoolName) []PoolRef {
	return s.snap.Load().pools[name.String()]
}

// ByInstance returns the ref registered under an instance id.
func (s *Service) ByInstance(instance string) (PoolRef, bool) {
	ref, ok := s.snap.Load().byInstance[instance]
	return ref, ok
}

// Names returns the distinct pool names with at least one instance,
// sorted by their string form.
func (s *Service) Names() []query.PoolName {
	snap := s.snap.Load()
	keys := make([]string, 0, len(snap.pools))
	for k := range snap.pools {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]query.PoolName, 0, len(keys))
	for _, k := range keys {
		out = append(out, snap.pools[k][0].Name)
	}
	return out
}

// Instances returns the total number of registered pool instances.
func (s *Service) Instances() int {
	return len(s.snap.Load().byInstance)
}

// AddPeer lists a peer pool manager for delegation.
func (s *Service) AddPeer(f Forwarder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuild(func(next *snapshot) {
		peers := make([]Forwarder, 0, len(next.peers)+1)
		next.peers = append(append(peers, next.peers...), f)
	})
}

// Peers returns the delegation peers in registration order. The returned
// slice is a shared immutable snapshot: callers must not modify it.
func (s *Service) Peers() []Forwarder {
	return s.snap.Load().peers
}
