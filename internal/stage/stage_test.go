package stage

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/netsim"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

func newPM(t testing.TB, name string, archs []string, n int) (*poolmgr.Manager, *directory.Service, *poolmgr.LocalFactory) {
	t.Helper()
	db := registry.NewDB()
	spec := registry.FleetSpec{N: n, Archs: archs, Domains: []string{"d"}, Seed: 1}
	if err := spec.Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	dir := directory.New()
	f := &poolmgr.LocalFactory{DB: db}
	t.Cleanup(f.CloseAll)
	pm, err := poolmgr.New(poolmgr.Config{Name: name, Dir: dir, Factory: f})
	if err != nil {
		t.Fatal(err)
	}
	return pm, dir, f
}

func startStage(t testing.TB, pm *poolmgr.Manager) *Server {
	t.Helper()
	srv, err := Serve(pm, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func basic(t testing.TB, text string) *query.Query {
	t.Helper()
	q, err := query.ParseBasic(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(nil, "127.0.0.1:0", netsim.Local()); err == nil {
		t.Error("nil manager should fail")
	}
}

func TestRemoteResolveRelease(t *testing.T) {
	pm, _, _ := newPM(t, "pm-remote", []string{"sun"}, 8)
	srv := startStage(t, pm)
	remote, err := DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if remote.Name() != "pm-remote" {
		t.Errorf("name = %q", remote.Name())
	}
	lease, err := remote.Resolve(basic(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatal(err)
	}
	if lease.Machine == "" {
		t.Error("empty lease")
	}
	if err := remote.Release(lease); err != nil {
		t.Fatal(err)
	}
	if err := remote.Release(lease); err == nil {
		t.Error("double release should fail")
	}
	if err := remote.Release(nil); err == nil {
		t.Error("nil lease should fail")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	pm, _, _ := newPM(t, "pm", []string{"sun"}, 4)
	srv := startStage(t, pm)
	remote, err := DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, err = remote.Resolve(basic(t, "punch.rsrc.arch = cray"))
	if err == nil || !strings.Contains(err.Error(), "pm") {
		t.Errorf("err = %v", err)
	}
	// The connection survives errors.
	if _, err := remote.Resolve(basic(t, "punch.rsrc.arch = sun")); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

// TestQueryManagerOverRemoteStage wires a local query manager to two
// remote pool-manager stages — the fully distributed pipeline.
func TestQueryManagerOverRemoteStage(t *testing.T) {
	pmSun, _, _ := newPM(t, "pm-sun", []string{"sun"}, 8)
	pmHP, _, _ := newPM(t, "pm-hp", []string{"hp"}, 8)
	srvSun := startStage(t, pmSun)
	srvHP := startStage(t, pmHP)

	remoteSun, err := DialRemote(srvSun.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteSun.Close()
	remoteHP, err := DialRemote(srvHP.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteHP.Close()

	sel := querymgr.NewParamSelector("arch", map[string][]int{"sun": {0}, "hp": {1}}, nil, 1)
	qm, err := querymgr.New(querymgr.Config{
		Name:     "qm",
		Managers: []querymgr.ResourceManager{remoteSun, remoteHP},
		Selector: sel,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := qm.SubmitText("", "punch.rsrc.arch = sun | hp")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fragments != 2 || resp.Succeeded != 2 {
		t.Errorf("resp = %+v", resp)
	}
	if err := qm.Release(resp.Lease); err != nil {
		t.Fatal(err)
	}
}

// TestDelegationAcrossRemoteStages registers a remote stage as a
// delegation peer: the visited list and TTL travel over the wire.
func TestDelegationAcrossRemoteStages(t *testing.T) {
	pmLocal, dirLocal, _ := newPM(t, "pm-local", []string{"hp"}, 4)
	pmRemote, _, _ := newPM(t, "pm-remote", []string{"alpha"}, 4)
	srv := startStage(t, pmRemote)
	remote, err := DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	dirLocal.AddPeer(remote)

	// An alpha query at the hp-only local manager delegates over TCP.
	lease, err := pmLocal.Resolve(basic(t, "punch.rsrc.arch = alpha"))
	if err != nil {
		t.Fatalf("delegation over the wire failed: %v", err)
	}
	if lease.Machine == "" {
		t.Error("empty delegated lease")
	}
	if err := remote.Release(lease); err != nil {
		t.Fatal(err)
	}

	// A query nobody satisfies terminates (visited list carried in the
	// wire message prevents ping-pong).
	if _, err := pmLocal.Resolve(basic(t, "punch.rsrc.arch = cray")); err == nil {
		t.Error("unsatisfiable query should fail")
	}
}

func TestRemoteTTLExpiryOverWire(t *testing.T) {
	pm, _, _ := newPM(t, "pm", []string{"sun"}, 2)
	srv := startStage(t, pm)
	remote, err := DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// TTL zero dies immediately on the remote side.
	_, err = remote.Forward(basic(t, "punch.rsrc.arch = sun"), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "TTL expired") {
		t.Errorf("err = %v", err)
	}
	// A visited list containing the remote's name is rejected remotely.
	_, err = remote.Forward(basic(t, "punch.rsrc.arch = sun"), 3, []string{"pm"})
	if err == nil || !strings.Contains(err.Error(), "visited") {
		t.Errorf("err = %v", err)
	}
}

// TestHellolessClientLogsRefusal: a stage listener reports a peer below
// wire.Protocol through Logf — one line naming the refusal per refused
// connection — instead of dropping the error silently.
func TestHellolessClientLogsRefusal(t *testing.T) {
	pm, _, _ := newPM(t, "pm-refuse", []string{"sun"}, 4)
	var mu sync.Mutex
	var lines []string
	srv, err := ServeOpts(pm, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	framer := wire.NewFramer(wire.JSON)
	if err := framer.WriteFrame(conn, &wire.Envelope{Type: wire.TypePing, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if reply, err := framer.ReadFrame(conn); err != nil || reply.Type != wire.TypeError {
		t.Fatalf("hello-less ping got %+v, %v; want one error reply", reply, err)
	}
	srv.Close() // waits for the connection handler, and with it the log line
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "protocol refused") {
		t.Fatalf("Logf lines %q, want exactly one naming the refusal", lines)
	}
}
