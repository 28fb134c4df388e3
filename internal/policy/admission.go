package policy

// Admission control is the usage-policy layer's overload face: where the
// rule language of policy.go decides whether a user may touch a machine
// at all, the Admitter decides how fast each account may submit requests
// when the daemon is the contended resource. Servers consult it at the
// wire boundary, before a request occupies a queue slot or a worker, and
// shed over-limit work with a cheap Busy reply.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AdmitLimit is one token bucket's configuration: a sustained rate in
// requests per second and a burst capacity (the bucket size). A burst
// below 1 is clamped to 1 — a bucket that can never hold a token would
// deny everything, which is a deny rule's job, not a rate's.
type AdmitLimit struct {
	Rate  float64 // tokens replenished per second
	Burst float64 // bucket capacity
}

func (l AdmitLimit) normalized() AdmitLimit {
	if l.Burst < 1 {
		l.Burst = 1
	}
	return l
}

// refill is how long an empty bucket takes to fill to its burst (zero for
// a disabled limit), capped at 2^20 seconds.
func (l AdmitLimit) refill() time.Duration {
	if l.Rate <= 0 {
		return 0
	}
	return time.Duration(min(l.Burst/l.Rate, 1<<20) * float64(time.Second))
}

// admitShards stripes the bucket map so concurrent readers on different
// accounts do not serialize on one mutex; a power of two keeps the pick
// to a mask of an FNV-style hash.
const admitShards = 16

type admitBucket struct {
	tokens float64
	last   time.Time
}

type admitShard struct {
	mu      sync.Mutex
	buckets map[string]*admitBucket
	swept   time.Time // when the shard last dropped its full buckets
}

// Admitter is a set of per-account token buckets. Admit spends one token
// from the caller's bucket; an empty bucket rejects with a hint of when
// the next token lands. Unknown accounts (and the empty key, requests
// from peers that do not stamp an identity) share the default limit —
// each key still gets its OWN bucket, so one noisy account cannot drain
// a neighbour's share; the anonymous key "" is one shared bucket by
// construction.
//
// A bucket refilled to its burst admits exactly as a missing one does, so
// it is dropped: a shard, when Admit visits it, drops its full buckets at
// most once per refill time, the longest an empty bucket of any limit
// takes to fill. The map then holds the keys seen within about two refill
// times, however many distinct keys have come and gone.
//
// Admitter is safe for concurrent use and allocation-free on the hot
// path once a key's bucket exists.
type Admitter struct {
	def       AdmitLimit
	overrides map[string]AdmitLimit
	shards    [admitShards]admitShard
	refill    time.Duration // the longest burst/rate over the limits

	// now is the clock; tests inject a fake one.
	now func() time.Time
}

// NewAdmitter builds an admitter with a default per-account limit and
// optional per-key overrides (nil for none).
func NewAdmitter(def AdmitLimit, overrides map[string]AdmitLimit) *Admitter {
	a := &Admitter{def: def.normalized(), now: time.Now}
	if len(overrides) > 0 {
		a.overrides = make(map[string]AdmitLimit, len(overrides))
		for k, l := range overrides {
			a.overrides[k] = l.normalized()
		}
	}
	for i := range a.shards {
		a.shards[i].buckets = make(map[string]*admitBucket)
	}
	a.refill = a.def.refill()
	for _, l := range a.overrides {
		a.refill = max(a.refill, l.refill())
	}
	return a
}

// SetClock replaces the admitter's clock (tests only; not safe to call
// concurrently with Admit).
func (a *Admitter) SetClock(now func() time.Time) { a.now = now }

// limit returns key's configured limit.
func (a *Admitter) limit(key string) AdmitLimit {
	if l, ok := a.overrides[key]; ok {
		return l
	}
	return a.def
}

func (a *Admitter) shard(key string) *admitShard {
	// FNV-1a over the key; cheap and well-spread for short account names.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &a.shards[h&(admitShards-1)]
}

// Admit spends one token from key's bucket. It returns ok=true when the
// request is within the account's rate; otherwise retryAfter estimates
// when the next token is replenished (callers pass it to the shed client
// as the Busy retry-after hint).
func (a *Admitter) Admit(key string) (ok bool, retryAfter time.Duration) {
	lim := a.limit(key)
	if lim.Rate <= 0 {
		// A non-positive rate disables admission for this key entirely
		// (the default config: admission is opt-in).
		return true, 0
	}
	now := a.now()
	s := a.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Sub(s.swept) >= a.refill {
		a.dropFull(s, key, now)
	}
	b := s.buckets[key]
	if b == nil {
		b = &admitBucket{tokens: lim.Burst, last: now}
		s.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * lim.Rate
		if b.tokens > lim.Burst {
			b.tokens = lim.Burst
		}
	}
	b.last = now
	// The epsilon absorbs float accumulation error across many refills: a
	// bucket a hair under one token has earned it, and rejecting would
	// hand the caller a meaningless zero retry hint.
	if b.tokens >= 1-1e-9 {
		b.tokens--
		return true, 0
	}
	// The deficit to the next whole token, at the replenish rate.
	return false, time.Duration((1 - b.tokens) / lim.Rate * float64(time.Second))
}

// dropFull deletes the shard's buckets that have refilled to their burst
// by now, but for key's, which the caller is about to spend from. The
// caller holds the shard's lock.
func (a *Admitter) dropFull(s *admitShard, key string, now time.Time) {
	for k, b := range s.buckets {
		lim := a.limit(k)
		if k != key && b.tokens+now.Sub(b.last).Seconds()*lim.Rate >= lim.Burst {
			delete(s.buckets, k)
		}
	}
	s.swept = now
}

// ParseAdmitOverrides parses a flag-style per-key limit spec:
//
//	"alice=100:200,batch=10:20"
//
// where each entry is key=rate[:burst] (burst defaults to the rate). An
// empty spec returns nil.
func ParseAdmitOverrides(spec string) (map[string]AdmitLimit, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]AdmitLimit)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, found := strings.Cut(entry, "=")
		if !found || key == "" {
			return nil, fmt.Errorf("policy: admit override %q: want key=rate[:burst]", entry)
		}
		rateStr, burstStr, hasBurst := strings.Cut(val, ":")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("policy: admit override %q: bad rate %q", entry, rateStr)
		}
		lim := AdmitLimit{Rate: rate, Burst: rate}
		if hasBurst {
			burst, err := strconv.ParseFloat(burstStr, 64)
			if err != nil || burst <= 0 {
				return nil, fmt.Errorf("policy: admit override %q: bad burst %q", entry, burstStr)
			}
			lim.Burst = burst
		}
		out[strings.TrimSpace(key)] = lim
	}
	return out, nil
}
