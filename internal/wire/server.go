package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// ResolveWindow applies the one window rule every endpoint shares: 0
// means DefaultWindow, 1 serializes dispatch, and a negative window is a
// configuration error.
func ResolveWindow(window int) (int, error) {
	switch {
	case window < 0:
		return 0, fmt.Errorf("wire: window %d: want 0 (default %d) or a positive window (1 serializes)", window, DefaultWindow)
	case window == 0:
		return DefaultWindow, nil
	}
	return window, nil
}

// Server owns one TCP endpoint: it accepts connections from a listener,
// serves each through ServeConnOpts with one handler, and tracks the live
// ones so Close can tear the endpoint down while its peers are still
// connected.
type Server struct {
	ln     net.Listener
	opts   ServeOptions
	handle Handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving ln. It fails, closing ln, when opts carries a
// negative window.
func NewServer(ln net.Listener, opts ServeOptions, h Handler) (*Server, error) {
	window, err := ResolveWindow(opts.Window)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	opts.Window = window
	s := &Server{ln: ln, opts: opts, handle: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for the
// connection handlers to finish. Every call waits, concurrent ones too.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		_ = s.ln.Close()
		for c := range s.conns {
			_ = c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	err := ServeConnOpts(conn, s.opts, s.handle)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && s.opts.Logf != nil {
		s.opts.Logf("wire: conn %s: %v", conn.RemoteAddr(), err)
	}
}
