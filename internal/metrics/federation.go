package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FederationStats accounts the federated-resolution fast path: concurrent
// peer delegation (fan-outs, wins, hedges, cancelled losers) and the
// remote change-stream subscription (watch events and resyncs received).
// Global counters are lock-free atomics; per-peer counters live behind a
// sync.Map so the delegation hot path never contends on a shared mutex.
// All methods are safe for concurrent use and tolerate a nil receiver, so
// call sites do not branch on whether accounting is enabled.
type FederationStats struct {
	fanouts        atomic.Int64
	wins           atomic.Int64
	hedges         atomic.Int64
	cancelled      atomic.Int64
	directed       atomic.Int64
	directedWins   atomic.Int64
	directedMisses atomic.Int64
	watchEvents    atomic.Int64
	watchResyncs   atomic.Int64
	watchPolls     atomic.Int64
	reconnects     atomic.Int64

	peers sync.Map // peer name -> *federationPeer
}

// federationPeer is one peer's counter block.
type federationPeer struct {
	forwards  atomic.Int64
	wins      atomic.Int64
	failures  atomic.Int64
	cancelled atomic.Int64
}

// NewFederationStats returns a zeroed stats block.
func NewFederationStats() *FederationStats { return &FederationStats{} }

func (s *FederationStats) peer(name string) *federationPeer {
	if p, ok := s.peers.Load(name); ok {
		return p.(*federationPeer)
	}
	p, _ := s.peers.LoadOrStore(name, &federationPeer{})
	return p.(*federationPeer)
}

// Fanout counts one concurrent delegation round (a local miss fanned out
// to more than one peer).
func (s *FederationStats) Fanout() {
	if s != nil {
		s.fanouts.Add(1)
	}
}

// Forwarded counts one branch launched toward the named peer: a directed
// hop, a serial step or a racing branch.
func (s *FederationStats) Forwarded(peer string) {
	if s != nil {
		s.peer(peer).forwards.Add(1)
	}
}

// Win counts the named peer answering first with a usable lease after a
// local miss (a directed hop's win is DirectedWin).
func (s *FederationStats) Win(peer string) {
	if s != nil {
		s.wins.Add(1)
		s.peer(peer).wins.Add(1)
	}
}

// Failure counts the named peer's branch failing.
func (s *FederationStats) Failure(peer string) {
	if s != nil {
		s.peer(peer).failures.Add(1)
	}
}

// HedgeFired counts one staggered branch launched because the hedge delay
// elapsed without a winner.
func (s *FederationStats) HedgeFired() {
	if s != nil {
		s.hedges.Add(1)
	}
}

// LoserCancelled counts one branch outstanding toward the named peer when
// another branch won (its late lease, if any, is released).
func (s *FederationStats) LoserCancelled(peer string) {
	if s != nil {
		s.cancelled.Add(1)
		s.peer(peer).cancelled.Add(1)
	}
}

// Directed counts one domain-routed delegation: a query whose domain the
// ownership table resolved to a single peer, sent as one directed hop
// instead of a fan-out. The hop itself counts in the peer's forwards
// (Forwarded) and failures (Failure) like any other branch.
func (s *FederationStats) Directed() {
	if s != nil {
		s.directed.Add(1)
	}
}

// DirectedWin counts a directed hop answered with a usable lease.
func (s *FederationStats) DirectedWin(peer string) {
	if s != nil {
		s.directedWins.Add(1)
		s.peer(peer).wins.Add(1)
	}
}

// DirectedMiss counts a directed hop that failed, dropping the query back
// to the local-then-fan-out path.
func (s *FederationStats) DirectedMiss() {
	if s != nil {
		s.directedMisses.Add(1)
	}
}

// WatchEvents counts n change-stream events received from a remote
// registry.
func (s *FederationStats) WatchEvents(n int) {
	if s != nil {
		s.watchEvents.Add(int64(n))
	}
}

// WatchResync counts one resync marker received (ring overflow or
// wholesale replacement upstream) forcing a full snapshot re-fetch.
func (s *FederationStats) WatchResync() {
	if s != nil {
		s.watchResyncs.Add(1)
	}
}

// WatchPoll counts one poll-fallback snapshot fetch (the remote peer does
// not speak the watch message, or watch mode is off).
func (s *FederationStats) WatchPoll() {
	if s != nil {
		s.watchPolls.Add(1)
	}
}

// WatchReconnect counts one watch stream lost and re-subscribed.
func (s *FederationStats) WatchReconnect() {
	if s != nil {
		s.reconnects.Add(1)
	}
}

// FederationPeerCounts is one peer's snapshot.
type FederationPeerCounts struct {
	Forwards  int64 `json:"forwards"`
	Wins      int64 `json:"wins"`
	Failures  int64 `json:"failures"`
	Cancelled int64 `json:"cancelled"`
}

// FederationSnapshot is a point-in-time copy of every counter.
type FederationSnapshot struct {
	Fanouts        int64                           `json:"fanouts"`
	Wins           int64                           `json:"wins"`
	Hedges         int64                           `json:"hedges"`
	Cancelled      int64                           `json:"cancelled"`
	Directed       int64                           `json:"directed"`
	DirectedWins   int64                           `json:"directedWins"`
	DirectedMisses int64                           `json:"directedMisses"`
	WatchEvents    int64                           `json:"watchEvents"`
	WatchResyncs   int64                           `json:"watchResyncs"`
	WatchPolls     int64                           `json:"watchPolls"`
	Reconnects     int64                           `json:"reconnects"`
	Peers          map[string]FederationPeerCounts `json:"peers,omitempty"`
}

// Snapshot copies every counter (each read atomically; the set is not a
// single atomic cut, which shutdown logs do not need).
func (s *FederationStats) Snapshot() FederationSnapshot {
	var out FederationSnapshot
	if s == nil {
		return out
	}
	out.Fanouts = s.fanouts.Load()
	out.Wins = s.wins.Load()
	out.Hedges = s.hedges.Load()
	out.Cancelled = s.cancelled.Load()
	out.Directed = s.directed.Load()
	out.DirectedWins = s.directedWins.Load()
	out.DirectedMisses = s.directedMisses.Load()
	out.WatchEvents = s.watchEvents.Load()
	out.WatchResyncs = s.watchResyncs.Load()
	out.WatchPolls = s.watchPolls.Load()
	out.Reconnects = s.reconnects.Load()
	s.peers.Range(func(k, v any) bool {
		if out.Peers == nil {
			out.Peers = make(map[string]FederationPeerCounts)
		}
		p := v.(*federationPeer)
		out.Peers[k.(string)] = FederationPeerCounts{
			Forwards:  p.forwards.Load(),
			Wins:      p.wins.Load(),
			Failures:  p.failures.Load(),
			Cancelled: p.cancelled.Load(),
		}
		return true
	})
	return out
}

// String renders the snapshot as the daemons' shutdown-log block: one
// aggregate line plus one line per peer, sorted by name.
func (s FederationSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fanouts=%d wins=%d hedges=%d cancelled=%d directed=%d/%d (%d miss) watch-events=%d resyncs=%d polls=%d reconnects=%d",
		s.Fanouts, s.Wins, s.Hedges, s.Cancelled, s.DirectedWins, s.Directed, s.DirectedMisses, s.WatchEvents, s.WatchResyncs, s.WatchPolls, s.Reconnects)
	names := make([]string, 0, len(s.Peers))
	for name := range s.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := s.Peers[name]
		fmt.Fprintf(&b, "\n  peer %-16s forwards=%d wins=%d failures=%d cancelled=%d",
			name, p.Forwards, p.Wins, p.Failures, p.Cancelled)
	}
	return b.String()
}
