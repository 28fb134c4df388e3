package registry

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
)

// identityKey renders everything a Params holds that sharing must keep
// apart: each key, the Str, the IsNum flag, the bits of Num, and each list
// element, a nil list rendered apart from an empty one, and a nil Params
// apart from an empty one. Two values share a stored copy exactly when
// their keys are equal.
func identityKey(p query.Params) string {
	if p == nil {
		return "nil"
	}
	var b strings.Builder
	b.WriteString("{")
	for _, e := range p {
		a := e.Attr
		fmt.Fprintf(&b, "%q:%q/%v/%x/", e.Key, a.Str, a.IsNum, math.Float64bits(a.Num))
		b.WriteString(listKey(a.List))
		b.WriteString(";")
	}
	b.WriteString("}")
	return b.String()
}

func listKey(l []string) string {
	if l == nil {
		return "nil"
	}
	return fmt.Sprintf("%q", l)
}

// sameArray reports whether two non-empty slices share a backing array.
func sameArray[E any](a, b []E) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestCanonDifferential holds a sharing store to a copying one. On a
// generated fleet, and on a batch of decoded records that share nothing,
// each shard keeps at most one backing array per distinct parameter set
// and group list, while every record reads, and saves, as the oracle's
// does; a SetParam changes its record only, however many
// others shared its parameters; and writers interning beside readers of
// shared views race on nothing.
func TestCanonDifferential(t *testing.T) {
	const n = 1000
	now := time.Unix(1000000000, 0).UTC()
	spec := DefaultFleetSpec(n)
	subject := NewSharded(8)
	oracle := NewLocked()
	if err := spec.Populate(NewDBWith(subject), now); err != nil {
		t.Fatal(err)
	}
	if err := spec.Populate(NewDBWith(oracle), now); err != nil {
		t.Fatal(err)
	}

	t.Run("arrays", func(t *testing.T) {
		checkShared(t, subject, n)
		compareState(t, 0, oracle, subject)
		for _, name := range oracle.Names() {
			want, _ := oracle.Get(name)
			got, err := subject.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %+v, want %+v", name, got, want)
			}
		}
	})

	// Decoded records each hold arrays of their own, where the generator's
	// share theirs: a batch of them shares as the generated fleet does.
	t.Run("bulk", func(t *testing.T) {
		var snap bytes.Buffer
		if err := oracle.Save(&snap); err != nil {
			t.Fatal(err)
		}
		ms, err := decodeSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSharded(8)
		if err := fresh.AddOwnedAll(ms); err != nil {
			t.Fatal(err)
		}
		checkShared(t, fresh, n)
		compareState(t, 0, oracle, fresh)
		if err := fresh.checkInvariants(); err != nil {
			t.Error(err)
		}
	})

	t.Run("set-param", func(t *testing.T) {
		before := map[string]*Machine{}
		for _, name := range subject.Names() {
			before[name], _ = subject.Get(name)
		}
		// The target is the first record whose parameters a sibling in
		// its shard shares.
		var target string
		var sibling *Machine
		for _, sh := range subject.shards {
			first := map[*query.Param]*Machine{}
			for _, m := range sh.all {
				if f, ok := first[&m.Policy.Params[0]]; ok {
					target, sibling = f.Static.Name, m
					break
				}
				first[&m.Policy.Params[0]] = m
			}
			if sibling != nil {
				break
			}
		}
		if sibling == nil {
			t.Fatal("no two records share their parameters")
		}
		for _, b := range []Backend{subject, oracle} {
			if err := b.SetParam(target, "arch", query.StrAttr("mips")); err != nil {
				t.Fatal(err)
			}
		}
		for name, want := range before {
			got, _ := subject.Get(name)
			if name == target {
				want = want.Clone()
				want.Policy.Params = want.Policy.Params.With("arch", query.StrAttr("mips"))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after SetParam(%s): got %+v, want %+v", name, target, got.Policy.Params, want.Policy.Params)
			}
		}
		// Setting the value back points the record at the stored copy
		// it left, since a sibling still holds that copy.
		for _, b := range []Backend{subject, oracle} {
			if err := b.SetParam(target, "arch", before[target].Policy.Params[0].Attr); err != nil {
				t.Fatal(err)
			}
		}
		if !sameArray(subject.shardFor(target).machines[target].Policy.Params, sibling.Policy.Params) {
			t.Errorf("%s set back to %s's parameters does not share them", target, sibling.Static.Name)
		}
		compareState(t, 1, oracle, subject)
		if err := subject.checkInvariants(); err != nil {
			t.Error(err)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const writers, rounds = 4, 200
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ms, _ := subject.Page(nil, Cursor{Limit: 64, Shared: true})
					for _, m := range ms {
						for _, v := range m.Policy.Params.All() {
							_ = len(v.Str) + len(v.List)
						}
						_ = m.SupportsToolGroup("spice")
					}
				}
			}()
		}
		// Each op sets an owner on one record and adds a copy of it
		// under a new name, or a batch of two; no two ops touch one name,
		// so the oracle may run them in any order afterwards.
		ops := make([][]func(Backend) error, writers)
		for w := range ops {
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("m%04d", w*rounds+i)
				value := query.StrAttr([]string{"ece", "cs", "public"}[i%3])
				add, err := oracle.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				add.Static.Name = fmt.Sprintf("x%d-%03d", w, i)
				other := add.Clone()
				other.Static.Name = fmt.Sprintf("y%d-%03d", w, i)
				ops[w] = append(ops[w], func(b Backend) error {
					if err := b.SetParam(name, "owner", value); err != nil {
						return err
					}
					if i%2 == 0 {
						return b.AddOwned(add.Clone())
					}
					return b.AddOwnedAll([]*Machine{add.Clone(), other.Clone()})
				})
			}
		}
		errs := make(chan error, writers)
		var writing sync.WaitGroup
		for _, list := range ops {
			writing.Add(1)
			go func() {
				defer writing.Done()
				for _, op := range list {
					if err := op(subject); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		writing.Wait()
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, list := range ops {
			for _, op := range list {
				if err := op(oracle); err != nil {
					t.Fatal(err)
				}
			}
		}
		compareState(t, 2, oracle, subject)
		if err := subject.checkInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// checkShared asserts that each shard of s keeps at most one backing array
// per distinct parameter set and group list, and that a fleet of n records
// shares: fewer than n/2 stored parameter sets.
func checkShared(t *testing.T, s *Sharded, n int) {
	t.Helper()
	for i, sh := range s.shards {
		paramArrays := map[*query.Param]bool{}
		paramValues := map[string]bool{}
		listArrays := map[*string]bool{}
		listValues := map[string]bool{}
		for _, m := range sh.all {
			if p := m.Policy.Params; len(p) > 0 {
				paramArrays[&p[0]] = true
				paramValues[identityKey(p)] = true
			}
			for _, l := range [][]string{m.Policy.UserGroups, m.Policy.ToolGroups} {
				if len(l) > 0 {
					listArrays[&l[0]] = true
					listValues[listKey(l)] = true
				}
			}
		}
		if len(sh.all) > 0 && len(paramValues) == 0 {
			t.Fatalf("shard %d: %d records and no parameters", i, len(sh.all))
		}
		if len(paramArrays) > len(paramValues) {
			t.Errorf("shard %d: %d parameter arrays for %d distinct values", i, len(paramArrays), len(paramValues))
		}
		if len(listArrays) > len(listValues) {
			t.Errorf("shard %d: %d group-list arrays for %d distinct values", i, len(listArrays), len(listValues))
		}
	}
	stored := 0
	for _, sh := range s.shards {
		stored += len(sh.canon.params)
	}
	if stored > n/2 {
		t.Errorf("%d records over %d stored parameter sets: the fleet shares little", n, stored)
	}
}

// TestCanonInternAllocs pins the lookup of a value already stored: it
// hashes on the stack and allocates nothing.
func TestCanonInternAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves values to the heap")
	}
	ms, err := DefaultFleetSpec(1).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var c canon
	c.intern(ms[0])
	m := ms[0].Clone()
	if allocs := testing.AllocsPerRun(100, func() { c.intern(m) }); allocs != 0 {
		t.Errorf("interning a stored value allocated %.0f times, want 0", allocs)
	}
}

// FuzzCanonParams holds the table's equality to identityKey: two Params
// built from the input share a stored copy if and only if they are equal
// field by field, and interning never changes a value. The second value is
// the first with one field moved by a hair (a nil list made empty, 0 made
// -0, another NaN, one byte of a string, the IsNum flag) or left alone.
func FuzzCanonParams(f *testing.F) {
	f.Add([]byte("arch\x00\x00sun\x00"), uint8(4))
	f.Add([]byte("memory\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00"), uint8(2))
	f.Add([]byte("cms\x00\x02sge,pbs\x00"), uint8(6))
	f.Add([]byte("x\x00\x01\x7f\xf8\x00\x00\x00\x00\x00\x01"), uint8(3))
	f.Add([]byte("x\x00\x01\x7f\xf8\x00\x00\x00\x00\x00\x01"), uint8(0))
	f.Add([]byte("tags\x00\x02-\x00"), uint8(1))
	f.Add([]byte("tags\x00\x02\x00"), uint8(1))
	f.Add([]byte("a\x00\x00x\x00b\x00\x01\x40\x00\x00\x00\x00\x00\x00\x00"), uint8(13))
	f.Add([]byte(""), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, mut uint8) {
		p := fuzzParams(data)
		q := mutateParams(p, mut)
		var c canon
		a := c.internParams(p)
		b := c.internParams(q)
		if identityKey(a) != identityKey(p) || identityKey(b) != identityKey(q) {
			t.Fatalf("interning changed a value: %s -> %s, %s -> %s", identityKey(p), identityKey(a), identityKey(q), identityKey(b))
		}
		equal := identityKey(p) == identityKey(q)
		if len(p) > 0 && sameArray(a, b) != equal {
			t.Fatalf("shared=%v but equal=%v:\n%s\n%s", sameArray(a, b), equal, identityKey(p), identityKey(q))
		}
		if len(p) > 0 && !sameArray(a, p) {
			t.Fatalf("the first value of its kind was not stored as given")
		}
	})
}

// fuzzParams reads entries from data: a key up to a zero byte, a kind
// byte, then a string up to a zero byte (kind 0), eight bytes of a number
// (kind 1) or a comma list up to a zero byte (kind 2, which "-" makes a
// nil list and "" an empty one). Keys are kept short so entries collide.
func fuzzParams(data []byte) query.Params {
	next := func(stop byte) string {
		i := bytes.IndexByte(data, stop)
		if i < 0 {
			i = len(data)
		}
		s := string(data[:i])
		data = data[min(i+1, len(data)):]
		return s
	}
	var ps []query.Param
	for len(data) > 0 && len(ps) < 8 {
		key := next(0)
		if len(key) > 8 {
			key = key[:8]
		}
		kind := byte(0)
		if len(data) > 0 {
			kind, data = data[0]%3, data[1:]
		}
		var a query.Attr
		switch kind {
		case 0:
			a = query.Attr{Str: next(0)}
		case 1:
			var bits uint64
			for i := 0; i < 8 && len(data) > 0; i++ {
				bits = bits<<8 | uint64(data[0])
				data = data[1:]
			}
			a = query.Attr{Num: math.Float64frombits(bits), IsNum: true, Str: "n"}
		case 2:
			switch s := next(0); s {
			case "-":
				a = query.Attr{Str: s}
			case "":
				a = query.Attr{List: []string{}}
			default:
				a = query.Attr{Str: s, List: strings.Split(s, ",")}
			}
		}
		ps = append(ps, query.Param{Key: key, Attr: a})
	}
	if ps == nil && len(data) == 0 {
		return query.Params{}
	}
	return query.NewParams(ps...)
}

// mutateParams returns a deep copy of p, with one field moved by mut.
func mutateParams(p query.Params, mut uint8) query.Params {
	if p == nil {
		return nil
	}
	q := p.Clone()
	if len(q) == 0 {
		if mut%2 == 1 {
			return nil
		}
		return q
	}
	e := &q[int(mut/8)%len(q)].Attr
	switch mut % 8 {
	case 1:
		if e.List == nil {
			e.List = []string{}
		} else if len(e.List) == 0 {
			e.List = nil
		}
	case 2:
		e.Num = -e.Num
	case 3:
		e.Num = math.Float64frombits(math.Float64bits(math.NaN()) + uint64(mut))
	case 4:
		e.Str += "x"
	case 5:
		e.IsNum = !e.IsNum
	case 6:
		if len(e.List) > 0 {
			e.List[0] += "y"
		}
	}
	return q
}
