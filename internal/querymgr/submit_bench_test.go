package querymgr

import (
	"strconv"
	"testing"

	"actyp/internal/pool"
	"actyp/internal/query"
)

// leaseRM grants one fixed lease to every query, so that the benchmarks
// below time the query manager and nothing behind it.
type leaseRM struct{ lease pool.Lease }

func (r *leaseRM) Name() string                              { return "pm" }
func (r *leaseRM) Resolve(*query.Query) (*pool.Lease, error) { return &r.lease, nil }
func (r *leaseRM) Release(*pool.Lease) error                 { return nil }

// benchSubmitText submits text(i) for i = 0..b.N-1 through SubmitText.
func benchSubmitText(b *testing.B, text func(i int) string) {
	m, err := New(Config{Name: "qm", Managers: []ResourceManager{&leaseRM{}}})
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, b.N)
	for i := range texts {
		texts[i] = text(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, t := range texts {
		if _, err := m.SubmitText("", t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitTextRepeated submits one two-line text over and over, the
// traffic of a client that asks for the same machines again.
func BenchmarkSubmitTextRepeated(b *testing.B) {
	benchSubmitText(b, func(int) string { return "punch.rsrc.arch = sun\npunch.rsrc.memory = >=128" })
}

// BenchmarkSubmitTextDistinct submits a text never seen before every time,
// the traffic for which a compiled-query cache only costs.
func BenchmarkSubmitTextDistinct(b *testing.B) {
	benchSubmitText(b, func(i int) string {
		return "punch.rsrc.arch = sun\npunch.rsrc.memory = >=" + strconv.Itoa(i)
	})
}
