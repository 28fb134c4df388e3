package querymgr

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/pool"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/registry"
)

// fakeRM is a scriptable pool manager.
type fakeRM struct {
	name string

	mu       sync.Mutex
	resolves int
	releases []string
	fail     bool
	delay    time.Duration
}

func (f *fakeRM) Name() string { return f.name }

func (f *fakeRM) Resolve(q *query.Query) (*pool.Lease, error) {
	f.mu.Lock()
	f.resolves++
	n := f.resolves
	fail, delay := f.fail, f.delay
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return nil, pool.ErrExhausted
	}
	return &pool.Lease{ID: fmt.Sprintf("%s-%d", f.name, n), Machine: "m", Pool: f.name}, nil
}

func (f *fakeRM) Release(lease *pool.Lease) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.releases = append(f.releases, lease.ID)
	return nil
}

func (f *fakeRM) released() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.releases)
}

func newQM(t *testing.T, mode QoS, rms ...ResourceManager) *Manager {
	t.Helper()
	m, err := New(Config{Name: "qm", Managers: rms, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Managers: []ResourceManager{&fakeRM{name: "a"}}}); err == nil {
		t.Error("missing name should fail")
	}
	if _, err := New(Config{Name: "qm"}); err == nil {
		t.Error("missing managers should fail")
	}
	m := newQM(t, WaitAll, &fakeRM{name: "a"})
	if m.Name() != "qm" {
		t.Errorf("name = %q", m.Name())
	}
	langs := m.Languages()
	if len(langs) != 1 || langs[0] != "native" {
		t.Errorf("languages = %v", langs)
	}
}

func TestSubmitBasicQuery(t *testing.T) {
	rm := &fakeRM{name: "pm"}
	m := newQM(t, WaitAll, rm)
	resp, err := m.SubmitText("", "punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil || resp.Fragments != 1 || resp.Succeeded != 1 {
		t.Errorf("resp = %+v", resp)
	}
	submitted, fragments, reassembled := m.Stats()
	if submitted != 1 || fragments != 1 || reassembled != 1 {
		t.Errorf("stats = %d/%d/%d", submitted, fragments, reassembled)
	}
}

// scriptedRM answers every Resolve with one fixed lease and error.
type scriptedRM struct {
	lease *pool.Lease
	err   error
}

func (s scriptedRM) Name() string                              { return "pm" }
func (s scriptedRM) Resolve(*query.Query) (*pool.Lease, error) { return s.lease, s.err }
func (s scriptedRM) Release(*pool.Lease) error                 { return nil }

// TestSubmitInlineMatchesFragmentPath: a one-fragment query resolved on
// the caller's goroutine returns the Response, error and Stats the
// reintegrator returns for it, under both QoS modes, for a grant, a
// Resolve error and a (nil, nil) answer.
func TestSubmitInlineMatchesFragmentPath(t *testing.T) {
	c, err := query.Parse("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	lease := &pool.Lease{ID: "l-1", Machine: "m", Pool: "pm"}
	answers := []struct {
		name string
		rm   scriptedRM
	}{
		{"grant", scriptedRM{lease: lease}},
		{"error", scriptedRM{err: pool.ErrExhausted}},
		{"nil-nil", scriptedRM{}},
	}
	epoch := time.Unix(0, 0)
	for _, mode := range []QoS{WaitAll, FirstMatch} {
		for _, a := range answers {
			rm := a.rm
			t.Run(fmt.Sprintf("mode=%d/%s", mode, a.name), func(t *testing.T) {
				type outcome struct {
					resp                              *Response
					err                               error
					submitted, fragments, reassembled int
				}
				run := func(inline bool) outcome {
					m, err := New(Config{Name: "qm", Managers: []ResourceManager{rm}, Mode: mode,
						Clock: func() time.Time { return epoch }})
					if err != nil {
						t.Fatal(err)
					}
					var o outcome
					o.resp, o.err = m.submit(c, inline)
					o.submitted, o.fragments, o.reassembled = m.Stats()
					return o
				}
				got, want := run(true), run(false)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("inline %+v (resp %+v), fragment path %+v (resp %+v)", got, got.resp, want, want.resp)
				}
			})
		}
	}
}

func TestSubmitValidatesSchema(t *testing.T) {
	m := newQM(t, WaitAll, &fakeRM{name: "pm"})
	if _, err := m.SubmitText("", "punch.rsrc.bogus = 1"); err == nil {
		t.Error("undeclared key should fail validation")
	}
	if _, err := m.SubmitText("", "nofamily.rsrc.arch = sun"); err == nil {
		t.Error("unknown family should fail validation")
	}
}

func TestSubmitCompositeWaitAllReleasesSurplus(t *testing.T) {
	rm := &fakeRM{name: "pm"}
	m := newQM(t, WaitAll, rm)
	resp, err := m.SubmitText("", "punch.rsrc.arch = sun | hp | alpha")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fragments != 3 || resp.Succeeded != 3 {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Lease == nil {
		t.Fatal("no lease")
	}
	// Two of the three leases must have been released back.
	if rm.released() != 2 {
		t.Errorf("released %d leases, want 2", rm.released())
	}
}

func TestSubmitCompositeFirstMatch(t *testing.T) {
	fast := &fakeRM{name: "fast"}
	slow := &fakeRM{name: "slow", delay: 50 * time.Millisecond}
	sel := NewParamSelector("arch", map[string][]int{"sun": {1}, "hp": {0}}, nil, 1)
	m, err := New(Config{Name: "qm", Managers: []ResourceManager{fast, slow}, Selector: sel, Mode: FirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := m.SubmitText("", "punch.rsrc.arch = sun | hp")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatal("no lease")
	}
	if resp.Lease.Pool != "fast" {
		t.Errorf("first-match winner = %s", resp.Lease.Pool)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("first-match waited %v for the slow fragment", elapsed)
	}
	// The slow fragment's lease is eventually released in the background.
	deadline := time.Now().Add(2 * time.Second)
	for slow.released() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if slow.released() != 1 {
		t.Errorf("straggler lease not released")
	}
}

func TestSubmitNoMatch(t *testing.T) {
	rm := &fakeRM{name: "pm", fail: true}
	m := newQM(t, WaitAll, rm)
	resp, err := m.SubmitText("", "punch.rsrc.arch = sun | hp")
	if !errors.Is(err, ErrNoMatch) {
		t.Errorf("err = %v", err)
	}
	if resp == nil || resp.Succeeded != 0 || resp.Fragments != 2 {
		t.Errorf("resp = %+v", resp)
	}

	// FirstMatch mode also reports no-match after all fragments fail.
	m2 := newQM(t, FirstMatch, rm)
	if _, err := m2.SubmitText("", "punch.rsrc.arch = sun | hp"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("first-match err = %v", err)
	}
}

func TestSubmitTextUnknownLanguage(t *testing.T) {
	m := newQM(t, WaitAll, &fakeRM{name: "pm"})
	if _, err := m.SubmitText("klingon", "x"); err == nil {
		t.Error("unknown language should fail")
	}
}

func TestCustomTranslator(t *testing.T) {
	rm := &fakeRM{name: "pm"}
	tr := TranslatorFunc(func(text string) (*query.Composite, error) {
		// A toy foreign language: "ARCH <value>".
		c := query.NewComposite()
		c.Add("punch.rsrc.arch", query.Eq(text[len("ARCH "):]))
		return c, nil
	})
	m, err := New(Config{
		Name:        "qm",
		Managers:    []ResourceManager{rm},
		Translators: map[string]Translator{"toy": tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.SubmitText("toy", "ARCH sun")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Error("toy language query failed")
	}
	if got := len(m.Languages()); got != 2 {
		t.Errorf("languages = %d", got)
	}
}

func TestRelease(t *testing.T) {
	rm1 := &fakeRM{name: "a"}
	rm2 := &fakeRM{name: "b"}
	m := newQM(t, WaitAll, rm1, rm2)
	if err := m.Release(&pool.Lease{ID: "x", Pool: "a"}); err != nil {
		t.Fatal(err)
	}
	if rm1.released() != 1 {
		t.Errorf("first manager should have released")
	}
}

func TestEndToEndWithRealPoolManager(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(16).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	dir := directory.New()
	factory := &poolmgr.LocalFactory{DB: db}
	defer factory.CloseAll()
	pm, err := poolmgr.New(poolmgr.Config{Name: "pm", Dir: dir, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	qm := newQM(t, WaitAll, pm)

	resp, err := qm.SubmitText("", "punch.rsrc.arch = sun | hp")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil || resp.Fragments != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	// The composite created two pools (one per architecture).
	if dir.Instances() != 2 {
		t.Errorf("instances = %d", dir.Instances())
	}
	if err := qm.Release(resp.Lease); err != nil {
		t.Fatal(err)
	}
}

func TestSelectors(t *testing.T) {
	a, b, c := &fakeRM{name: "a"}, &fakeRM{name: "b"}, &fakeRM{name: "c"}
	mgrs := []ResourceManager{a, b, c}
	q := query.New().Set("punch.rsrc.arch", query.Eq("sun"))

	t.Run("random covers all", func(t *testing.T) {
		s := NewRandomSelector(3)
		seen := map[string]bool{}
		for i := 0; i < 100; i++ {
			seen[s.Select(q, mgrs).Name()] = true
		}
		if len(seen) != 3 {
			t.Errorf("random selector covered %d managers", len(seen))
		}
		if s.Select(q, nil) != nil {
			t.Error("empty manager list should yield nil")
		}
	})

	t.Run("round robin cycles", func(t *testing.T) {
		s := &RoundRobinSelector{}
		want := []string{"a", "b", "c", "a"}
		for i, w := range want {
			if got := s.Select(q, mgrs).Name(); got != w {
				t.Errorf("pick %d = %s, want %s", i, got, w)
			}
		}
		if s.Select(q, nil) != nil {
			t.Error("empty manager list should yield nil")
		}
	})

	t.Run("param routes by value", func(t *testing.T) {
		s := NewParamSelector("arch", map[string][]int{"sun": {0}, "hp": {1, 2}}, nil, 1)
		for i := 0; i < 10; i++ {
			if got := s.Select(q, mgrs).Name(); got != "a" {
				t.Fatalf("sun routed to %s", got)
			}
		}
		hp := query.New().Set("punch.rsrc.arch", query.Eq("hp"))
		for i := 0; i < 50; i++ {
			got := s.Select(hp, mgrs).Name()
			if got != "b" && got != "c" {
				t.Fatalf("hp routed to %s", got)
			}
		}
		// Unrouted value falls back to all managers.
		alpha := query.New().Set("punch.rsrc.arch", query.Eq("alpha"))
		seen := map[string]bool{}
		for i := 0; i < 100; i++ {
			seen[s.Select(alpha, mgrs).Name()] = true
		}
		if len(seen) != 3 {
			t.Errorf("fallback covered %d managers", len(seen))
		}
		// Missing key also falls back.
		empty := query.New()
		if s.Select(empty, mgrs) == nil {
			t.Error("missing key should still select")
		}
		// Out-of-range route index falls back rather than panicking.
		s2 := NewParamSelector("arch", map[string][]int{"sun": {99}}, nil, 1)
		if s2.Select(q, mgrs) == nil {
			t.Error("bad route index should fall back")
		}
		if s.Select(q, nil) != nil {
			t.Error("empty manager list should yield nil")
		}
	})
}

// recordingRM grants every query and records the text of each it resolves.
type recordingRM struct{ seen sync.Map }

func (r *recordingRM) Name() string { return "pm" }
func (r *recordingRM) Resolve(q *query.Query) (*pool.Lease, error) {
	r.seen.Store(q.String(), true)
	return &pool.Lease{ID: "l", Machine: "m"}, nil
}
func (r *recordingRM) Release(*pool.Lease) error { return nil }

// TestCompiledCache holds the compiled-query cache to its promises:
// concurrent submissions of one text share one compilation and reach the
// pool managers with the query the text decomposes to; registering a
// schema makes every cached text compile again, under the new schema; a
// full cache empties rather than grows; and a native translator installed
// through Config is called on every submission, not cached.
func TestCompiledCache(t *testing.T) {
	rm := &recordingRM{}
	schemas := query.NewSchemaRegistry()
	m, err := New(Config{Name: "qm", Managers: []ResourceManager{rm}, Schemas: schemas})
	if err != nil {
		t.Fatal(err)
	}

	const text = "punch.rsrc.arch = sun | hp\npunch.rsrc.memory = >=128"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := m.SubmitText("", text)
				if err != nil || resp.Lease == nil || resp.Fragments != 2 {
					t.Errorf("submit: %+v, %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Goroutines that missed together may each have compiled the text;
	// from then on it is never compiled again.
	warm := m.Compiles()
	if warm < 1 || warm > 8 {
		t.Fatalf("text compiled %d times by 8 goroutines", warm)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.SubmitText("native", text); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Compiles(); got != warm {
		t.Errorf("a cached text was compiled again: %d compiles, then %d", warm, got)
	}
	for _, want := range []string{"punch.rsrc.arch = sun\npunch.rsrc.memory = >=128", "punch.rsrc.arch = hp\npunch.rsrc.memory = >=128"} {
		if _, ok := rm.seen.Load(want); !ok {
			t.Errorf("no fragment resolved as %q", want)
		}
	}

	// A new schema: arch is now an enum without sun, and the cached
	// text must be validated again and refused.
	punch := query.PunchSchema()
	if err := punch.Declare(query.Field{Class: query.ClassRsrc, Name: "arch", Kind: query.KindEnum, Values: []string{"hp"}}); err != nil {
		t.Fatal(err)
	}
	schemas.Register(punch)
	if _, err := m.SubmitText("", text); err == nil {
		t.Error("a cached text passed a schema registered after it was compiled")
	}
	if got := m.Compiles(); got != warm {
		t.Errorf("a text the new schema refuses was cached: %d compiles, want %d", got, warm)
	}

	// Distinct texts fill the cache; the one that finds it full starts it
	// again.
	reset := false
	for i := 0; i <= compiledCap; i++ {
		if _, err := m.SubmitText("", fmt.Sprintf("punch.rsrc.memory = >=%d", i)); err != nil {
			t.Fatal(err)
		}
		m.compiledMu.RLock()
		size := len(m.compiled)
		m.compiledMu.RUnlock()
		if size > compiledCap {
			t.Fatalf("the cache holds %d texts, cap %d", size, compiledCap)
		}
		reset = reset || (i > 0 && size == 1)
	}
	if !reset {
		t.Errorf("%d distinct texts never emptied the cache", compiledCap+1)
	}

	// A translator that replaces the native parser is not the manager's
	// to cache: it translates every submission.
	var calls atomic.Int64
	native := TranslatorFunc(func(text string) (*query.Composite, error) {
		calls.Add(1)
		return query.Parse(text)
	})
	m, err = New(Config{Name: "qm", Managers: []ResourceManager{rm}, Translators: map[string]Translator{"native": native}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.SubmitText("", text); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 3 || m.Compiles() != 0 {
		t.Errorf("a replaced native translator: %d calls for 3 submissions, %d compiles cached", got, m.Compiles())
	}
}
