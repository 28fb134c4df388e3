package registry

import "actyp/internal/query"

// DB is the white-pages database handed around the pipeline: a
// concurrency-safe store of one record per machine carrying the twenty
// fields of Figure 3, with per-field update, walk with predicate, and the
// mark-taken protocol pool objects use while loading their caches. The
// actual storage engine is a pluggable Backend; every engine preserves the
// same observable semantics, so the choice only affects performance.
type DB struct {
	Backend
}

// NewDB returns an empty database on the default engine: the sharded,
// index-accelerated backend with a GOMAXPROCS-scaled shard count.
func NewDB() *DB {
	return &DB{Backend: NewSharded(0)}
}

// NewDBWith returns a database on an explicit backend, typically built by
// OpenBackend from a benchmark flag. A nil backend falls back to the
// default.
func NewDBWith(b Backend) *DB {
	if b == nil {
		return NewDB()
	}
	return &DB{Backend: b}
}

// Watch subscribes to the change stream with a FIFO of at most
// max(DefaultWatchBuffer, 2×Len()) events. Twice the fleet holds a full
// monitor sweep plus a state-flap burst, and a FIFO full of sweeps folds
// to one snapshot per machine, at most half of it, so a consumer that
// falls behind the monitor is not forced to resync. A buffer at or below
// zero, or above that limit, gets the limit, so a size that arrives from
// a remote client cannot make a stalled watcher's backlog grow without
// bound. Backend.Watch takes its size as given.
func (db *DB) Watch(buffer int) *Subscription {
	limit := max(DefaultWatchBuffer, 2*db.Len())
	if buffer <= 0 || buffer > limit {
		buffer = limit
	}
	return db.Backend.Watch(buffer)
}

// EachPage reads the match set of conds past c.After in name order, c.Limit
// records at a time (copies, or views under c.Shared), resuming each page
// by the last name of the one before: a record present for the whole pass
// is visited exactly once, whatever is added or removed meanwhile, and no
// page costs more than the candidates it steps over.
func (db *DB) EachPage(conds []query.RsrcCond, c Cursor, visit func(page []*Machine)) {
	for {
		page, _ := db.Page(conds, c)
		if len(page) > 0 {
			visit(page)
		}
		if c.Limit <= 0 || len(page) < c.Limit {
			return
		}
		c.After = page[len(page)-1].Static.Name
	}
}
