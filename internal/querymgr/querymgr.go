// Package querymgr implements ActYP query managers (Section 5.2.1), the
// head and tail stages of the resource-management pipeline. A query manager
// translates native-language queries into the internal format, decomposes
// composite ("or") queries into basic components that are processed
// concurrently by the rest of the pipeline, selects pool managers by
// parameter value, randomly, or round-robin, and reintegrates the fragment
// results at the end of the pipeline — the paper's analogy to TCP/IP
// datagram fragmentation and reassembly.
package querymgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
)

// ResourceManager is the downstream pipeline as seen by a query manager: a
// pool-manager stage that resolves basic queries to leases. poolmgr.Manager
// implements it; the networked mode substitutes RPC stubs.
type ResourceManager interface {
	Name() string
	Resolve(q *query.Query) (*pool.Lease, error)
	Release(lease *pool.Lease) error
}

// Translator converts a native resource-specification language into the
// internal composite form. Registering translators per family is how the
// pipeline interoperates with foreign systems ("this could allow ActYP to
// reuse Condor's ClassAds", Section 5.1).
//
// A Manager caches what its own native parser compiles, not what a
// translator installed through Config compiles: it cannot vouch that a
// foreign translator is a pure function of its text, so such a translator
// is called on every submission.
type Translator interface {
	Translate(text string) (*query.Composite, error)
}

// TranslatorFunc adapts a function to the Translator interface.
type TranslatorFunc func(text string) (*query.Composite, error)

// Translate calls f.
func (f TranslatorFunc) Translate(text string) (*query.Composite, error) { return f(text) }

// QoS selects the reintegration policy of Section 6.
type QoS int

const (
	// WaitAll reintegrates every fragment and returns the best lease,
	// releasing the surplus ones.
	WaitAll QoS = iota
	// FirstMatch returns the first successful fragment immediately and
	// releases stragglers in the background — the paper's low-latency
	// option for composite queries.
	FirstMatch
)

// Response is the reintegrated answer to one (possibly composite) query.
type Response struct {
	// Lease is the allocated machine; nil only when Err is non-nil.
	Lease *pool.Lease
	// Fragments is how many basic queries the composite decomposed into.
	Fragments int
	// Succeeded counts fragments that produced a lease.
	Succeeded int
	// Elapsed is the wall-clock time from submission to reintegration.
	Elapsed time.Duration
}

// ErrNoMatch is returned when no fragment of the query could be satisfied.
var ErrNoMatch = errors.New("querymgr: no resources matched the query")

// Config describes a query manager.
type Config struct {
	// Name identifies this query manager instance.
	Name string
	// Schemas validates incoming queries; default NewSchemaRegistry().
	Schemas *query.SchemaRegistry
	// Managers is the pool-manager stage. Required, non-empty.
	Managers []ResourceManager
	// Selector picks a manager per basic query; default RandomSelector.
	Selector Selector
	// Translators by language name; "native" is preinstalled with the
	// key-value parser of Section 5.1.
	Translators map[string]Translator
	// Mode is the reintegration QoS (default WaitAll).
	Mode QoS
	// Redundancy implements the higher QoS level of Section 6: each
	// basic query is simultaneously forwarded to this many distinct pool
	// managers and the best response is used (surplus leases are
	// released). Values below 2, or above the manager count, clamp.
	Redundancy int
	// Clock supplies time; defaults to time.Now.
	Clock func() time.Time
}

// Manager is one query-manager stage instance.
type Manager struct {
	name        string
	schemas     *query.SchemaRegistry
	managers    []ResourceManager
	selector    Selector
	translators map[string]Translator
	mode        QoS
	redundancy  int
	clock       func() time.Time

	submitted  atomic.Int64
	fragments  atomic.Int64
	reassembly atomic.Int64

	// The compiled-query cache, native texts only and only while "native"
	// is the manager's own parser (cacheNative); compiles counts misses.
	cacheNative bool
	compiledMu  sync.RWMutex
	compiled    map[string]compiledQuery
	compiles    atomic.Int64
}

// compiledCap bounds a manager's compiled-query cache. Clients send a few
// distinct texts over and over; a manager that has seen this many empties
// the cache and starts again rather than tracking which entry to evict.
const compiledCap = 1024

// compiledMaxText is the longest text the cache keeps, so that a full
// cache holds at most a few megabytes of text. Longer texts are compiled
// on every submission.
const compiledMaxText = 4 << 10

// compiledQuery is a text translated, validated and decomposed: the basic
// queries every submission of the text resolves. Concurrent requests share
// them, so nothing downstream of a Manager may write a query it is handed.
type compiledQuery struct {
	basics []*query.Query
	gen    uint64 // the schema generation it was validated under
}

// New creates a query manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("querymgr: config needs a name")
	}
	if len(cfg.Managers) == 0 {
		return nil, fmt.Errorf("querymgr: config needs at least one pool manager")
	}
	if cfg.Schemas == nil {
		cfg.Schemas = query.NewSchemaRegistry()
	}
	if cfg.Selector == nil {
		cfg.Selector = NewRandomSelector(1)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	redundancy := cfg.Redundancy
	if redundancy < 1 {
		redundancy = 1
	}
	if redundancy > len(cfg.Managers) {
		redundancy = len(cfg.Managers)
	}
	m := &Manager{
		name:        cfg.Name,
		schemas:     cfg.Schemas,
		managers:    cfg.Managers,
		selector:    cfg.Selector,
		translators: make(map[string]Translator),
		mode:        cfg.Mode,
		redundancy:  redundancy,
		clock:       cfg.Clock,
		compiled:    make(map[string]compiledQuery),
	}
	m.translators["native"] = TranslatorFunc(query.Parse)
	for lang, tr := range cfg.Translators {
		m.translators[lang] = tr
	}
	_, replaced := cfg.Translators["native"]
	m.cacheNative = !replaced
	return m, nil
}

// Name returns the query manager's instance name.
func (m *Manager) Name() string { return m.name }

// Languages lists the installed translator names.
func (m *Manager) Languages() []string {
	out := make([]string, 0, len(m.translators))
	for lang := range m.translators {
		out = append(out, lang)
	}
	return out
}

// SubmitText translates a native-language query and submits it. lang ""
// means "native". A native text the manager has compiled before, under the
// current schemas, skips parsing, validation and decomposition.
func (m *Manager) SubmitText(lang, text string) (*Response, error) {
	start := m.clock()
	if lang == "" {
		lang = "native"
	}
	cache := m.cacheNative && lang == "native" && len(text) <= compiledMaxText
	gen := m.schemas.Generation()
	if cache {
		m.compiledMu.RLock()
		cq, ok := m.compiled[text]
		m.compiledMu.RUnlock()
		if ok && cq.gen == gen {
			return m.resolve(start, cq.basics, true)
		}
	}
	tr, ok := m.translators[lang]
	if !ok {
		return nil, fmt.Errorf("querymgr %s: no translator for language %q", m.name, lang)
	}
	c, err := tr.Translate(text)
	if err != nil {
		return nil, err
	}
	if err := m.schemas.Validate(c); err != nil {
		return nil, err
	}
	basics := c.Decompose()
	if cache {
		m.compiles.Add(1)
		m.compiledMu.Lock()
		if len(m.compiled) >= compiledCap {
			clear(m.compiled)
		}
		m.compiled[text] = compiledQuery{basics: basics, gen: gen}
		m.compiledMu.Unlock()
	}
	return m.resolve(start, basics, true)
}

// Compiles returns how many native texts the manager has compiled into its
// cache: the misses, of which every other cacheable submission is a hit.
func (m *Manager) Compiles() int { return int(m.compiles.Load()) }

// Submit validates, decomposes, routes, and reintegrates a composite
// query, returning a machine lease. Only a composite or redundant query
// runs its fragments concurrently; a query that is one fragment sent to
// one manager resolves on the caller's goroutine. Nothing of c is cached.
func (m *Manager) Submit(c *query.Composite) (*Response, error) {
	return m.submit(c, true)
}

// submit is Submit; inline=false sends even a lone fragment through the
// reintegrator, the reference the inline path is tested against.
func (m *Manager) submit(c *query.Composite, inline bool) (*Response, error) {
	start := m.clock()
	if err := m.schemas.Validate(c); err != nil {
		return nil, err
	}
	return m.resolve(start, c.Decompose(), inline)
}

// resolve routes the basic queries of one submission and reintegrates
// their results.
func (m *Manager) resolve(start time.Time, basics []*query.Query, inline bool) (*Response, error) {
	m.submitted.Add(1)
	m.fragments.Add(int64(len(basics)))

	var winner fragment
	var succeeded int
	if inline && len(basics)*m.redundancy == 1 {
		// Nothing runs beside the one fragment and nothing needs
		// reintegrating.
		q := basics[0]
		lease, err := m.selector.Select(q, m.managers).Resolve(q)
		if err == nil && lease != nil {
			winner.lease, succeeded = lease, 1
		}
	} else {
		re := newReintegrator(len(basics)*m.redundancy, m.mode)
		for i, q := range basics {
			for _, mgr := range m.pickManagers(q) {
				go func(idx int, q *query.Query, mgr ResourceManager) {
					lease, err := mgr.Resolve(q)
					re.deliver(fragment{index: idx, lease: lease, err: err, mgr: mgr})
				}(i, q, mgr)
			}
		}
		winner, succeeded = re.wait()
	}
	m.reassembly.Add(1)

	resp := &Response{
		Fragments: len(basics),
		Succeeded: succeeded,
		Elapsed:   m.clock().Sub(start),
	}
	if winner.lease == nil {
		return resp, ErrNoMatch
	}
	resp.Lease = winner.lease
	return resp, nil
}

// pickManagers chooses the managers a basic query is forwarded to: the
// selector's pick, plus — under redundancy — additional distinct managers
// in slice order.
func (m *Manager) pickManagers(q *query.Query) []ResourceManager {
	first := m.selector.Select(q, m.managers)
	out := []ResourceManager{first}
	if m.redundancy <= 1 {
		return out
	}
	for _, mgr := range m.managers {
		if len(out) >= m.redundancy {
			break
		}
		if mgr != first {
			out = append(out, mgr)
		}
	}
	return out
}

// Release returns a lease through the pool-manager stage. Any manager can
// route a release; the first one that recognizes the pool instance wins.
func (m *Manager) Release(lease *pool.Lease) error {
	var firstErr error
	for _, mgr := range m.managers {
		if err := mgr.Release(lease); err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns counters: composite queries submitted, basic fragments
// produced, and reassemblies completed.
func (m *Manager) Stats() (submitted, fragments, reassembled int) {
	return int(m.submitted.Load()), int(m.fragments.Load()), int(m.reassembly.Load())
}

// fragment is one basic-query result flowing back to the reintegration
// stage.
type fragment struct {
	index int
	lease *pool.Lease
	err   error
	mgr   ResourceManager
}

// reintegrator reassembles fragment results, propagating the state needed
// to release surplus leases — the paper's explicit analogy to IP datagram
// reassembly.
type reintegrator struct {
	mode    QoS
	total   int
	results chan fragment
}

func newReintegrator(total int, mode QoS) *reintegrator {
	return &reintegrator{mode: mode, total: total, results: make(chan fragment, total)}
}

func (r *reintegrator) deliver(f fragment) { r.results <- f }

// wait blocks until the reintegration policy is satisfied. In WaitAll mode
// it collects every fragment, keeps the lowest-indexed success
// (deterministic), and releases the rest. In FirstMatch mode it returns on
// the first success and releases stragglers in the background.
func (r *reintegrator) wait() (fragment, int) {
	var winner fragment
	winner.index = -1
	succeeded := 0

	if r.mode == FirstMatch {
		for i := 0; i < r.total; i++ {
			f := <-r.results
			if f.err == nil && f.lease != nil {
				succeeded++
				winner = f
				// Release stragglers without blocking the reply.
				remaining := r.total - i - 1
				go func(n int) {
					for j := 0; j < n; j++ {
						g := <-r.results
						if g.err == nil && g.lease != nil && g.mgr != nil {
							_ = g.mgr.Release(g.lease)
						}
					}
				}(remaining)
				return winner, succeeded
			}
		}
		return winner, succeeded
	}

	frags := make([]fragment, 0, r.total)
	for i := 0; i < r.total; i++ {
		frags = append(frags, <-r.results)
	}
	for _, f := range frags {
		if f.err != nil || f.lease == nil {
			continue
		}
		succeeded++
		if winner.index < 0 || f.index < winner.index {
			if winner.index >= 0 && winner.mgr != nil {
				_ = winner.mgr.Release(winner.lease)
			}
			winner = f
		} else if f.mgr != nil {
			_ = f.mgr.Release(f.lease)
		}
	}
	return winner, succeeded
}
