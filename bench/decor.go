package main

import (
	"context"
	"sync"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/querymgr"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// The decorators below sit at the public interfaces the layers already
// expose (wire.Codec, querymgr.Translator, querymgr.Selector and
// ResourceManager, pool.LeaseLog, directory.Forwarder). Each times the call
// it forwards (tracer.span) and with the tracer off only forwards. No file
// outside bench/ knows about them.

// tracedCodec times frame encode and decode on one side of a connection.
type tracedCodec struct {
	wire.Codec
	t              *tracer
	encode, decode string // mark names
}

// tracedCodecs wraps the default negotiation preference. Negotiation goes by
// Name, which the embedding passes through, so both ends still settle on
// the production codec.
func tracedCodecs(t *tracer, side string) []wire.Codec {
	var out []wire.Codec
	for _, c := range wire.DefaultCodecs() {
		out = append(out, tracedCodec{Codec: c, t: t, encode: side + ".encode", decode: side + ".decode"})
	}
	return out
}

func (c tracedCodec) AppendEnvelope(dst []byte, env *wire.Envelope) ([]byte, error) {
	defer c.t.span(c.encode)()
	return c.Codec.AppendEnvelope(dst, env)
}

func (c tracedCodec) DecodeEnvelope(body []byte) (*wire.Envelope, error) {
	defer c.t.span(c.decode)()
	return c.Codec.DecodeEnvelope(body)
}

// tracedTranslator replaces the query manager's "native" translator, which
// is query.Parse, with a timed call of the same function.
type tracedTranslator struct{ t *tracer }

func (tr tracedTranslator) Translate(text string) (*query.Composite, error) {
	defer tr.t.span(spanParse)()
	return query.Parse(text)
}

// tracedSelector forwards the pool-manager choice to the selector the
// service would have built itself and returns the chosen manager behind a
// timing wrapper, which is how poolmgr.Manager.Resolve gets its span.
type tracedSelector struct {
	inner   querymgr.Selector
	t       *tracer
	wrapped sync.Map // querymgr.ResourceManager -> tracedManager
}

func (s *tracedSelector) Select(q *query.Query, managers []querymgr.ResourceManager) querymgr.ResourceManager {
	pick := s.inner.Select(q, managers)
	if w, ok := s.wrapped.Load(pick); ok {
		return w.(tracedManager)
	}
	w, _ := s.wrapped.LoadOrStore(pick, tracedManager{ResourceManager: pick, t: s.t})
	return w.(tracedManager)
}

type tracedManager struct {
	querymgr.ResourceManager
	t *tracer
}

func (m tracedManager) Resolve(q *query.Query) (*pool.Lease, error) {
	defer m.t.span(spanResolve)()
	return m.ResourceManager.Resolve(q)
}

// tracedLeaseLog times the journal's lease hooks; inner is nil when the
// workload runs without a journal. pool.Pool calls LeaseGranted as the last
// step of Allocate and stamps lease.Granted as the first, so the hook also
// yields the span of Pool.Allocate itself.
type tracedLeaseLog struct {
	inner pool.LeaseLog
	t     *tracer
}

func (l tracedLeaseLog) LeaseGranted(lease *pool.Lease, expires time.Time) {
	done := l.t.span(spanJournal)
	if l.inner != nil {
		l.inner.LeaseGranted(lease, expires)
	}
	done()
	if l.t.on.Load() {
		l.t.add(spanAllocate, l.t.at(lease.Granted), l.t.now())
	}
}

func (l tracedLeaseLog) LeaseReleased(id string) {
	defer l.t.span(spanJournal)()
	if l.inner != nil {
		l.inner.LeaseReleased(id)
	}
}

func (l tracedLeaseLog) LeaseRenewed(id string, expires time.Time) {
	defer l.t.span(spanJournal)()
	if l.inner != nil {
		l.inner.LeaseRenewed(id, expires)
	}
}

// tracedForwarder times the peer hop. It embeds *stage.Remote so it stays a
// directory.ContextForwarder and LeaseReleaser, which directed resolution
// and delegated release need.
type tracedForwarder struct {
	*stage.Remote
	t *tracer
}

func (f tracedForwarder) Forward(q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return f.ForwardContext(context.Background(), q, ttl, visited)
}

func (f tracedForwarder) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	defer f.t.span(spanForward)()
	return f.Remote.ForwardContext(ctx, q, ttl, visited)
}
