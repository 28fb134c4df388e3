// Package route maps administrative domains to the actypd peers that own
// them. The paper's architecture is explicitly multi-domain — each Active
// Yellow Pages daemon manages the resources of its own administrative
// domain and cooperates with peers for the rest — and this package is the
// ownership half of that sentence: given a domain, which node's white
// pages hold the authoritative records?
//
// Ownership comes from two layers. Static assignments (the daemon's
// -own-domains flag, an operator saying "purdue lives on node A") win
// outright. Everything else falls to rendezvous hashing (highest random
// weight) over the node set: each node scores FNV-1a(node, domain) and
// the highest score owns the domain. Rendezvous keeps reassignment
// minimal when nodes join or leave — only the domains the new node wins
// (or the dead node held) move — and needs no coordination: every peer
// computes the same table from the same node list.
//
// A Table with neither static entries nor nodes answers "local" for every
// domain: an unpartitioned daemon owns the whole namespace, which is
// exactly the pre-partition behaviour.
package route

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"

	"actyp/internal/query"
	"actyp/internal/registry"
)

// DomainKey is the indexed white-pages attribute that carries a machine's
// administrative domain, and the query key a domain-constrained request
// pins with an equality condition.
const DomainKey = "punch.rsrc.domain"

// Table is a domain-ownership table. It is safe for concurrent use: reads
// see an immutable snapshot, Reload swaps the snapshot atomically (the
// ownership handoff protocol reloads tables on live nodes while requests
// are in flight).
type Table struct {
	local string
	snap  atomic.Pointer[snapshot]
}

type snapshot struct {
	static map[string]string // domain -> owning node, operator-pinned
	nodes  []string          // rendezvous candidates, sorted, deduped
}

// New builds a table for a node. local is this node's name as peers know
// it (the poolmgr/visited-list name); it is what Owns compares against.
func New(local string) *Table {
	t := &Table{local: local}
	t.snap.Store(&snapshot{})
	return t
}

// Local returns the node name the table was built for.
func (t *Table) Local() string { return t.local }

// Reload atomically replaces the ownership table: static domain->node
// assignments (may be nil) and the rendezvous node set (may be empty).
// Both are copied; the caller keeps its arguments.
func (t *Table) Reload(static map[string]string, nodes []string) {
	s := &snapshot{}
	if len(static) > 0 {
		s.static = make(map[string]string, len(static))
		for d, n := range static {
			s.static[d] = n
		}
	}
	if len(nodes) > 0 {
		seen := make(map[string]bool, len(nodes))
		for _, n := range nodes {
			if n != "" && !seen[n] {
				seen[n] = true
				s.nodes = append(s.nodes, n)
			}
		}
		sort.Strings(s.nodes)
	}
	t.snap.Store(s)
}

// Nodes returns the rendezvous node set (a copy, sorted).
func (t *Table) Nodes() []string {
	s := t.snap.Load()
	out := make([]string, len(s.nodes))
	copy(out, s.nodes)
	return out
}

// Static returns the operator-pinned assignments (a copy).
func (t *Table) Static() map[string]string {
	s := t.snap.Load()
	out := make(map[string]string, len(s.static))
	for d, n := range s.static {
		out[d] = n
	}
	return out
}

// Owner resolves a domain to its owning node. ok is false when the table
// cannot route the domain — empty domain, or a table with no assignments
// at all — in which case the caller keeps pre-partition behaviour (local
// resolution plus fan-out fallback).
func (t *Table) Owner(domain string) (owner string, ok bool) {
	if domain == "" {
		return "", false
	}
	s := t.snap.Load()
	if n, ok := s.static[domain]; ok {
		return n, true
	}
	if len(s.nodes) == 0 {
		return "", false
	}
	return rendezvous(s.nodes, domain), true
}

// Owns reports whether this node holds the authoritative records for the
// domain. Unroutable domains (including "") read as owned: records
// without a domain stay local, and an empty table owns everything.
func (t *Table) Owns(domain string) bool {
	owner, ok := t.Owner(domain)
	return !ok || owner == t.local
}

// Partitioned reports whether the table routes anything at all — i.e.
// whether owned-only storage and directed routing are in effect.
func (t *Table) Partitioned() bool {
	s := t.snap.Load()
	return len(s.static) > 0 || len(s.nodes) > 0
}

// KeepMachine is the owned-only storage predicate: whether a machine
// record belongs in this node's white pages. Machines with no domain
// attribute stay local.
func (t *Table) KeepMachine(m *registry.Machine) bool {
	return t.Owns(MachineDomain(m))
}

// rendezvous picks the highest-random-weight node for a domain. Ties
// break toward the lexicographically smaller node (nodes is sorted and
// the scan keeps the first maximum), so every peer agrees.
func rendezvous(nodes []string, domain string) string {
	best, bestScore := "", uint64(0)
	for _, n := range nodes {
		if s := score(n, domain); best == "" || s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// score weighs one (node, domain) pair: FNV-1a over "node\0domain", then a
// splitmix64 finalizer. The finalizer matters — raw FNV-1a has weak
// avalanche on trailing bytes, so without it one node's prefix dominates
// the comparison and wins nearly every domain.
func score(node, domain string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(domain))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DomainOf extracts the domain a basic query pins, if any. Only an exact
// equality condition routes: a wildcard, negation, range, or set leaves
// the query unroutable (ok=false) and the caller falls back to fan-out.
func DomainOf(q *query.Query) (string, bool) {
	if q == nil {
		return "", false
	}
	c, ok := q.Get(DomainKey)
	if !ok || c.Op != query.OpEq || c.Str == "" || c.Str == "*" {
		return "", false
	}
	return c.Str, true
}

// PoolDomain is DomainOf for a pool instance id ("sig/ident#N"): the pool
// name encodes the criteria of the queries it serves, so it pins the same
// domain they did.
func PoolDomain(instance string) (string, bool) {
	i := strings.LastIndexByte(instance, '#')
	if i < 0 {
		return "", false
	}
	name, err := query.ParsePoolName(instance[:i])
	if err != nil {
		return "", false
	}
	family, _, _ := strings.Cut(DomainKey, ".")
	q, err := name.Criteria(family)
	if err != nil {
		return "", false
	}
	return DomainOf(q)
}

// MachineDomain extracts a machine record's administrative domain ("" when
// the record carries none).
func MachineDomain(m *registry.Machine) string {
	if m == nil {
		return ""
	}
	domain, _ := m.Policy.Params.Get("domain")
	return domain.Str
}

// Filter renders the basic-query filter text selecting one domain — the
// predicate a per-domain watch subscription or mirror ships to the owner
// so only the slice it needs travels the wire.
func Filter(domain string) string {
	return DomainKey + " = " + domain
}

// FilterAny renders the basic-query filter text selecting any of the
// given domains (a comma-separated set condition; one domain degenerates
// to Filter's equality). Empty input selects nothing useful and returns
// "" so callers fall back to an unfiltered subscription.
func FilterAny(domains []string) string {
	parts := make([]string, 0, len(domains))
	for _, d := range domains {
		if d = strings.TrimSpace(d); d != "" {
			parts = append(parts, d)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	if len(parts) == 1 {
		return Filter(parts[0])
	}
	return DomainKey + " = " + strings.Join(parts, ",")
}

// ParseStatic parses the -own-domains flag syntax: comma-separated
// entries, each either "domain" (owned by local) or "domain=node".
func ParseStatic(local, spec string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, n, found := strings.Cut(part, "=")
		d, n = strings.TrimSpace(d), strings.TrimSpace(n)
		if d == "" || (found && n == "") {
			return nil, fmt.Errorf("route: bad -own-domains entry %q", part)
		}
		if !found {
			n = local
		}
		out[d] = n
	}
	return out, nil
}
