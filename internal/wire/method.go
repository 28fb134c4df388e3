package wire

import (
	"context"
	"fmt"
	"reflect"
)

// Messages: every request/reply pair is declared once, as a Method value
// naming its envelope type, its overload lane, whether it is safe to
// re-send, and its Go request and reply types. The declaration is all the
// dispatch path needs: a Mux serves it with one typed handler, Call is the
// one client call every stub uses, and LaneOf reads the lane from the
// same table. Adding a request is one declaration and one handler.

// None is the payload type of a request or reply that carries no
// payload: it travels as a bare frame (ping, pm-name).
type None struct{}

// Method declares one request/reply pair. Build it with NewMethod.
type Method[Req, Rep any] struct {
	Name       string
	Lane       Lane
	Idempotent bool
}

// methods maps each declared name to its lane. Declarations are
// package-level variables, so the table is complete once package
// initialization ends and the per-frame LaneOf lookup reads it unlocked.
var methods = make(map[string]Lane)

// NewMethod declares a method and registers its name in the method table.
// Call it only in a package-level variable declaration. A name declared
// twice is a programming error: NewMethod panics, at init.
func NewMethod[Req, Rep any](name string, lane Lane, idempotent bool) Method[Req, Rep] {
	if _, dup := methods[name]; dup {
		panic(fmt.Sprintf("wire: method %q declared twice", name))
	}
	methods[name] = lane
	return Method[Req, Rep]{Name: name, Lane: lane, Idempotent: idempotent}
}

// LaneOf is the overload classifier: the declared lane of the method
// named typ, bulk for a type no method declares.
func LaneOf(typ string) Lane {
	if lane, ok := methods[typ]; ok {
		return lane
	}
	return LaneBulk
}

// The wire family. The stage (pm-*) and proxy (pool-*) families declare
// theirs in their own packages.
var (
	Ping      = NewMethod[None, None](TypePing, LaneControl, true)
	Query     = NewMethod[QueryRequest, QueryReply](TypeQuery, LaneBulk, false)
	Release   = NewMethod[ReleaseRequest, ReleaseReply](TypeRelease, LaneControl, false)
	Renew     = NewMethod[RenewRequest, RenewReply](TypeRenew, LaneControl, true)
	Select    = NewMethod[SelectRequest, SelectReply](TypeSelect, LaneBulk, false)
	Route     = NewMethod[RouteRequest, RouteReply](TypeRoute, LaneBulk, false)
	SpawnPool = NewMethod[SpawnPoolRequest, SpawnPoolReply](TypeSpawnPool, LaneLease, false)
)

// bare reports whether a payload pointer is of the no-payload type.
func bare(p any) bool {
	_, ok := p.(*None)
	return ok
}

// empty reports whether T has no fields: a payload of T carries nothing
// to decode (None, and the release and renew replies).
func empty[T any]() bool { return reflect.TypeFor[T]().Size() == 0 }

// Call round-trips one request through c: CallIdempotent when the method
// is idempotent, CallContext otherwise. The request goes out as the
// pointer it is — the pointer types are the ones that carry a payload's
// full method set (ExtPayload). A reply of another type is an error, and
// a failure the server reported stays reachable as a *RemoteError.
func (m Method[Req, Rep]) Call(ctx context.Context, c *Client, req *Req) (*Rep, error) {
	var payload any = req
	if bare(payload) {
		payload = nil
	}
	call := c.CallContext
	if m.Idempotent {
		call = c.CallIdempotent
	}
	env, err := call(ctx, m.Name, payload)
	if err != nil {
		return nil, err
	}
	if env.Type != m.Name {
		return nil, fmt.Errorf("wire: %s got %q", m.Name, env.Type)
	}
	rep := new(Rep)
	if !empty[Rep]() {
		if err := env.Decode(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Mux serves declared methods: it decodes each request into its method's
// request type, calls the registered handler, and encodes the reply or
// the failure. Every mux answers ping. Register handlers before serving.
type Mux struct {
	handlers map[string]func(*Envelope) (any, error)
}

// NewMux returns a mux that answers ping.
func NewMux() *Mux {
	mux := &Mux{handlers: make(map[string]func(*Envelope) (any, error))}
	Handle(mux, Ping, func(*None) (*None, error) { return &None{}, nil })
	return mux
}

// Handle registers h as the mux's handler for method m. A handler returns
// a non-nil reply or an error, which the requester receives as a
// *RemoteError.
func Handle[Req, Rep any](mux *Mux, m Method[Req, Rep], h func(*Req) (*Rep, error)) {
	mux.handlers[m.Name] = func(env *Envelope) (any, error) {
		req := new(Req)
		if !empty[Req]() {
			if err := env.Decode(req); err != nil {
				return nil, err
			}
		}
		rep, err := h(req)
		if err != nil || bare(rep) {
			return nil, err
		}
		return rep, nil
	}
}

// Serve answers one request envelope; it is the Handler an endpoint
// (NewServer, the UDP server) takes.
func (mux *Mux) Serve(env *Envelope) *Envelope {
	h, ok := mux.handlers[env.Type]
	if !ok {
		return ErrorEnvelope(env.ID, fmt.Errorf("wire: unknown message type %q", env.Type))
	}
	msg, err := h(env)
	if err != nil {
		return ErrorEnvelope(env.ID, err)
	}
	return &Envelope{Type: env.Type, ID: env.ID, Msg: msg}
}
