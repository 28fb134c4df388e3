package querymgr

import (
	"hash/fnv"

	"actyp/internal/query"
	"actyp/internal/route"
)

// DomainSelector pins every domain-routable basic query to one pool
// manager, chosen by hashing the query's domain over the manager slice.
// On a partitioned node this keeps all traffic for one domain flowing
// through the same pool manager, so that manager's pool cache stays hot
// for the domains the node owns — the
// intra-node counterpart of the inter-node ownership routing done by
// route.Table. Queries without a routable domain predicate fall through
// to the wrapped selector, so mixed workloads keep their old spread.
type DomainSelector struct {
	// Fallback handles queries with no usable domain predicate.
	// Defaults to a deterministic RandomSelector.
	Fallback Selector
}

// NewDomainSelector builds a domain-affinity selector around fallback.
func NewDomainSelector(fallback Selector, seed int64) *DomainSelector {
	if fallback == nil {
		fallback = NewRandomSelector(seed)
	}
	return &DomainSelector{Fallback: fallback}
}

// Select implements Selector.
func (s *DomainSelector) Select(q *query.Query, managers []ResourceManager) ResourceManager {
	if len(managers) == 0 {
		return nil
	}
	if domain, ok := route.DomainOf(q); ok {
		return managers[domainIndex(domain, len(managers))]
	}
	return s.Fallback.Select(q, managers)
}

// domainIndex maps a domain onto [0, n) with the same FNV+splitmix
// finishing the rest of the codebase uses: raw FNV-1a alone has weak
// avalanche on short trailing input, which would cluster similar domain
// names onto one manager.
func domainIndex(domain string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(domain))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
