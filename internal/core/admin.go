package core

import (
	"fmt"
	"time"

	"actyp/internal/directory"
	"actyp/internal/pool"
	"actyp/internal/query"
)

// criteriaName parses a basic query text and returns its pool name.
func (s *Service) criteriaName(text string) (query.PoolName, *query.Query, error) {
	q, err := query.ParseBasic(text)
	if err != nil {
		return query.PoolName{}, nil, err
	}
	return query.Name(q), q, nil
}

// Precreate builds the pool for the given criteria ahead of any query —
// the paper's manually configured resource-pool creation. It is a no-op if
// an instance already exists.
func (s *Service) Precreate(criteria string) error {
	name, _, err := s.criteriaName(criteria)
	if err != nil {
		return err
	}
	if len(s.dir.Lookup(name)) > 0 {
		return nil
	}
	ref, err := s.factory.Create(name, 0)
	if err != nil {
		return err
	}
	return s.dir.Register(ref)
}

// SplitPool replaces the single instance of the criteria's pool with k
// child pools that partition its machines (Figure 7). Children register
// under the same pool name, so pool managers stripe queries across them by
// random instance selection, turning one long linear search into k
// concurrent short ones.
func (s *Service) SplitPool(criteria string, k int) error {
	name, _, err := s.criteriaName(criteria)
	if err != nil {
		return err
	}
	refs := s.dir.Lookup(name)
	if len(refs) != 1 {
		return fmt.Errorf("core: split needs exactly one instance of %s, found %d", name, len(refs))
	}
	parent, ok := refs[0].Local.(*pool.Pool)
	if !ok {
		return fmt.Errorf("core: instance %s is not a local pool", refs[0].Instance)
	}
	parts, err := parent.Split(k)
	if err != nil {
		return err
	}
	// Children subscribe to the change stream as they are built; the
	// parent's Close unsubscribes it.
	children := make([]directory.PoolRef, 0, k)
	for i, members := range parts {
		child, err := s.factory.Build(pool.Config{Name: name, Instance: i + 1, Members: members}) // parent was instance 0
		if err != nil {
			for _, c := range children {
				c.Local.(*pool.Pool).Close()
			}
			return fmt.Errorf("core: split child %d: %w", i, err)
		}
		children = append(children, child)
	}
	return s.swap(parent, children)
}

// ReplicatePool adds replicas of the criteria's pool that share its full
// machine set, each with an instance-specific bias ("instance i of a given
// pool prefers every i-th machine in the pool", Section 7). The original
// instance is replaced so that all replicas carry consistent bias/stride
// configuration.
func (s *Service) ReplicatePool(criteria string, replicas int) error {
	if replicas <= 0 {
		return fmt.Errorf("core: replicas must be positive, got %d", replicas)
	}
	name, _, err := s.criteriaName(criteria)
	if err != nil {
		return err
	}
	refs := s.dir.Lookup(name)
	if len(refs) != 1 {
		return fmt.Errorf("core: replicate needs exactly one instance of %s, found %d", name, len(refs))
	}
	parent, ok := refs[0].Local.(*pool.Pool)
	if !ok {
		return fmt.Errorf("core: instance %s is not a local pool", refs[0].Instance)
	}
	members := parent.Members()
	made := make([]directory.PoolRef, 0, replicas)
	for i := 0; i < replicas; i++ {
		rep, err := s.factory.Build(pool.Config{Name: name, Instance: i + 1, Replicas: replicas, Members: members})
		if err != nil {
			for _, r := range made {
				r.Local.(*pool.Pool).Close()
			}
			return fmt.Errorf("core: replica %d: %w", i, err)
		}
		made = append(made, rep)
	}
	return s.swap(parent, made)
}

// swap registers a retiring pool's successors, then unregisters and
// closes the pool.
func (s *Service) swap(parent *pool.Pool, successors []directory.PoolRef) error {
	for _, ref := range successors {
		if err := s.dir.Register(ref); err != nil {
			return err
		}
	}
	s.dir.Unregister(parent.ID())
	parent.Close()
	return nil
}

// StripePools assigns every machine an administrator parameter "pool" in
// [0, n) by registration order — the setup of Figures 4 and 5, where 3,200
// machines are uniformly distributed across n pools and client queries are
// striped randomly across them.
func (s *Service) StripePools(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: stripe count must be positive, got %d", n)
	}
	names := s.db.Names()
	for i, name := range names {
		if err := s.db.SetParam(name, "pool", query.NumAttr(float64(i%n))); err != nil {
			return err
		}
	}
	return nil
}

// PoolSizes reports the size of every registered pool instance, keyed by
// instance id (admin observability).
func (s *Service) PoolSizes() map[string]int {
	out := make(map[string]int)
	for _, name := range s.dir.Names() {
		for _, ref := range s.dir.Lookup(name) {
			if p, ok := ref.Local.(*pool.Pool); ok {
				out[ref.Instance] = p.Size()
			}
		}
	}
	return out
}

// WarmPools pre-creates the striped pools 0..n-1 so experiments measure
// steady-state response time rather than first-touch creation.
func (s *Service) WarmPools(n int) error {
	for k := 0; k < n; k++ {
		if err := s.Precreate(fmt.Sprintf("punch.rsrc.pool = %d", k)); err != nil {
			return err
		}
	}
	return nil
}

// Drain waits until every outstanding lease across all local pools is
// released or the timeout elapses, returning whether it drained.
func (s *Service) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		busy := 0
		for _, p := range s.factory.Pools() {
			busy += p.Size() - p.Free()
		}
		if busy == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
