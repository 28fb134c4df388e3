package core

// Domain migration: the ownership-handoff protocol for moving one
// administrative domain between two live services without losing
// registrations or stranding leases. The protocol is drain -> snapshot
// page -> re-own:
//
//   1. The source ExportDomains the domain: paged reads of the domain's
//      white-pages records (taken marks ride inside them) plus every live
//      lease its pools hold on those machines.
//   2. The destination AdoptDomains the export: records are added (an
//      existing watch-replica copy of a record is replaced by the
//      authoritative one), pool instances are rebuilt from the taken
//      marks exactly as crash recovery rebuilds them, and the leases are
//      re-adopted so releases and renewals keep resolving.
//   3. Both sides (and any routing client) Reload their route.Tables so
//      the domain resolves to the destination.
//   4. The source DropDomains the export: its pools shed the domain, the
//      records leave its white pages, and its journal (whose replay is
//      domain-filtered on boot) forgets the domain with them. Nothing is
//      installed for the leases it held: a release or renewal arriving at
//      the source afterwards finds no local lease and goes on to the
//      domain's new owner, the one owner hop every pool manager takes
//      for a lease it does not hold (poolmgr.Manager.Release, rule 3).
//
// Between steps 2 and 4 both nodes can answer for the domain — duplicate
// answers, never lost ones.

import (
	"fmt"
	"sort"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/route"
)

// DomainExport is one domain's authoritative state, drained for handoff.
type DomainExport struct {
	Domain   string              `json:"domain"`
	Machines []*registry.Machine `json:"machines"` // records incl. taken marks, name order
	Leases   []RecoveredLease    `json:"leases"`   // live local leases on those machines
}

// ExportDomain drains one domain from this service: the white-pages
// records matching the domain (read in pages of pageSize resumed by last
// name, so a record registered for the whole export appears exactly once
// whatever is added or removed meanwhile) and the live leases the local
// pools hold on the domain's machines. The service keeps serving the
// domain until DropDomain; export is a read.
func (s *Service) ExportDomain(domain string, pageSize int) (*DomainExport, error) {
	if domain == "" {
		return nil, fmt.Errorf("core: export needs a domain")
	}
	if pageSize <= 0 {
		pageSize = 2048
	}
	exp := &DomainExport{Domain: domain}
	q, err := query.ParseBasic(route.Filter(domain))
	if err != nil {
		return nil, err
	}
	s.db.EachPage(query.CompileRsrc(q), registry.Cursor{Limit: pageSize}, func(page []*registry.Machine) {
		exp.Machines = append(exp.Machines, page...)
	})
	names := make(map[string]bool, len(exp.Machines))
	for _, m := range exp.Machines {
		names[m.Static.Name] = true
	}
	for _, p := range s.factory.Pools() {
		for _, li := range p.Leases() {
			if !names[li.Machine] {
				continue
			}
			lease := pool.Lease{ID: li.ID, Machine: li.Machine, Pool: p.ID()}
			if m, err := s.db.View(li.Machine); err == nil {
				lease.Addr = m.Access.Addr
				lease.ExecUnitPort = m.Access.ExecUnitPort
				lease.MountMgrPort = m.Access.MountMgrPort
			}
			exp.Leases = append(exp.Leases, RecoveredLease{Lease: lease, Expires: li.Expires})
		}
	}
	sort.Slice(exp.Leases, func(i, j int) bool { return exp.Leases[i].Lease.ID < exp.Leases[j].Lease.ID })
	return exp, nil
}

// AdoptDomain re-owns an exported domain on this service: records go into
// the white pages (replacing any non-authoritative watch-replica copies),
// pool instances are rebuilt from the records' taken marks through the
// same adoption machinery crash recovery uses, and the exported leases
// are re-adopted into them. grace extends every adopted lease's deadline
// to at least now+grace (zero: the service's LeaseTTL), giving holders
// whose renewals raced the migration a full heartbeat window.
func (s *Service) AdoptDomain(exp *DomainExport, grace time.Duration) (RecoveryReport, error) {
	var rep RecoveryReport
	if exp == nil {
		return rep, fmt.Errorf("core: nil domain export")
	}
	if grace <= 0 {
		grace = s.opts.LeaseTTL
	}
	for _, m := range exp.Machines {
		if err := s.db.Add(m); err != nil {
			// A cross-domain watch replica may already hold a copy of the
			// record; the migrated record is the authoritative one.
			if rmErr := s.db.Remove(m.Static.Name); rmErr != nil {
				return rep, fmt.Errorf("core: adopt %s: %w", m.Static.Name, err)
			}
			if err := s.db.Add(m); err != nil {
				return rep, fmt.Errorf("core: adopt %s: %w", m.Static.Name, err)
			}
		}
	}

	byInstance := map[string][]RecoveredLease{}
	for _, rl := range exp.Leases {
		byInstance[rl.Lease.Pool] = append(byInstance[rl.Lease.Pool], rl)
	}
	// Instances with taken marks but no live leases must be rebuilt too,
	// or their marks strand the machines (same invariant as Recover).
	for _, m := range exp.Machines {
		if m.TakenBy != "" {
			if _, ok := byInstance[m.TakenBy]; !ok {
				byInstance[m.TakenBy] = nil
			}
		}
	}
	instances := make([]string, 0, len(byInstance))
	for inst := range byInstance {
		instances = append(instances, inst)
	}
	sort.Strings(instances)

	now := time.Now()
	for _, inst := range instances {
		ls := byInstance[inst]
		p, err := s.adoptInstance(inst, ls)
		if err != nil {
			s.db.ReleaseAll(inst)
			for _, rl := range ls {
				if s.opts.LeaseLog != nil {
					s.opts.LeaseLog.LeaseReleased(rl.Lease.ID)
				}
				rep.Dropped++
			}
			continue
		}
		if p == nil {
			continue // instance evaporated entirely
		}
		rep.PoolsAdopted++
		for _, rl := range ls {
			expires := rl.Expires
			if floor := now.Add(grace); grace > 0 && expires.Before(floor) {
				expires = floor
			}
			lease := rl.Lease
			if err := p.AdoptLease(&lease, expires); err != nil {
				s.db.Release(inst, rl.Lease.Machine)
				if s.opts.LeaseLog != nil {
					s.opts.LeaseLog.LeaseReleased(rl.Lease.ID)
				}
				rep.Dropped++
				continue
			}
			rep.Restored++
		}
	}
	return rep, nil
}

// adoptInstance finds or rebuilds one pool instance for adoption. An
// instance already live in the directory (a pool spanning the migration)
// is reused; otherwise it is rebuilt from the just-added taken marks,
// exactly as crash recovery does.
func (s *Service) adoptInstance(inst string, ls []RecoveredLease) (*pool.Pool, error) {
	if ref, ok := s.dir.ByInstance(inst); ok {
		if p, pok := ref.Local.(*pool.Pool); pok {
			return p, nil
		}
		return nil, fmt.Errorf("core: instance %s has no local pool handle", inst)
	}
	name, num, err := parsePoolInstance(inst)
	if err != nil {
		return nil, err
	}
	members := s.db.TakenBy(inst)
	exclusive := len(members) > 0
	if !exclusive {
		seen := map[string]bool{}
		for _, rl := range ls {
			if !seen[rl.Lease.Machine] {
				seen[rl.Lease.Machine] = true
				members = append(members, rl.Lease.Machine)
			}
		}
		sort.Strings(members)
	}
	if len(members) == 0 {
		return nil, nil
	}
	ref, err := s.factory.Build(pool.Config{Name: name, Instance: num, Members: members, Exclusive: exclusive})
	if err != nil {
		return nil, err
	}
	if err := s.dir.Register(ref); err != nil {
		return nil, err
	}
	return ref.Local.(*pool.Pool), nil
}

// DropDomain completes the handoff on the source: every pool touching the
// exported machines releases its leases (they live at the new owner now;
// journaling the releases here is correct — this journal's replay is
// domain-filtered and forgets the domain anyway) and closes, clearing
// its white-pages claims, then the records leave the database. It returns
// how many records were removed.
//
// A holder that still releases or renews through this node afterwards is
// forwarded by the pool managers' routing, not by state left here: the
// local pool no longer holds the lease, so the call goes once to the
// domain's owner in the route table, which step 3 reloaded. Without a
// route table the call fails with "unknown lease".
//
// A pool whose members span the migrated domain and others is closed
// whole: its foreign-domain machines return to the free list and the next
// query rebuilds a pool over them. Ownership handoff is rare enough that
// a one-off pool rebuild beats engine-level cache eviction.
func (s *Service) DropDomain(exp *DomainExport) int {
	if exp == nil {
		return 0
	}
	names := make(map[string]bool, len(exp.Machines))
	for _, m := range exp.Machines {
		names[m.Static.Name] = true
	}
	for _, p := range s.factory.Pools() {
		touched := false
		for _, member := range p.Members() {
			if names[member] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		for _, li := range p.Leases() {
			_ = p.Release(li.ID)
		}
		s.dir.Unregister(p.ID())
		p.Close()
	}
	dropped := 0
	for name := range names {
		if err := s.db.Remove(name); err == nil {
			dropped++
		}
	}
	return dropped
}
