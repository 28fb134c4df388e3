package registry

import (
	"fmt"
	"math/rand"
	"time"

	"actyp/internal/query"
)

// FleetSpec describes a synthetic machine fleet. The controlled experiments
// of Section 7 use a database of 3,200 machines; this generator builds such
// databases deterministically from a seed.
type FleetSpec struct {
	N       int      // number of machines
	Archs   []string // architectures to cycle through ("" entries not allowed)
	Domains []string // administrative domains to cycle through
	Owners  []string // machine owners to cycle through
	Tools   []string // tool groups; each machine gets a contiguous slice
	Seed    int64    // deterministic seed for speeds/memory jitter
}

// DefaultFleetSpec mirrors the heterogeneous PUNCH testbed: four
// architectures across two domains with a spread of tool licenses.
func DefaultFleetSpec(n int) FleetSpec {
	return FleetSpec{
		N:       n,
		Archs:   []string{"sun", "hp", "alpha", "x86"},
		Domains: []string{"purdue", "upc"},
		Owners:  []string{"ece", "cs", "public"},
		Tools:   []string{"tsuprem4", "spice", "matlab", "minimos"},
		Seed:    1,
	}
}

// HomogeneousFleetSpec builds the hot-spot scenario of Section 7: a large
// number of identical machines that all aggregate into one pool.
func HomogeneousFleetSpec(n int) FleetSpec {
	return FleetSpec{
		N:       n,
		Archs:   []string{"sun"},
		Domains: []string{"purdue"},
		Owners:  []string{"public"},
		Tools:   []string{"tsuprem4"},
		Seed:    1,
	}
}

// Each generates the fleet one record at a time and hands each to fn, which
// owns it from then on; the first error from fn stops the generation.
// Machine names are m0000, m0001, ... and every record is up, unloaded, and
// monitor-fresh as of now.
func (spec FleetSpec) Each(now time.Time, fn func(*Machine) error) error {
	if spec.N <= 0 {
		return fmt.Errorf("registry: fleet size must be positive, got %d", spec.N)
	}
	if len(spec.Archs) == 0 || len(spec.Domains) == 0 {
		return fmt.Errorf("registry: fleet needs at least one arch and one domain")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.N; i++ {
		arch := spec.Archs[i%len(spec.Archs)]
		domain := spec.Domains[i%len(spec.Domains)]
		owner := "public"
		if len(spec.Owners) > 0 {
			owner = spec.Owners[i%len(spec.Owners)]
		}
		mem := float64(int(128) << uint(rng.Intn(4))) // 128..1024 MB
		cpus := 1 + rng.Intn(4)
		m := &Machine{
			State: StateUp,
			Dynamic: Dynamic{
				Load:        0,
				FreeMemory:  mem,
				FreeSwap:    2 * mem,
				LastUpdate:  now,
				ServiceFlag: FlagExecUnit | FlagMountMgr | FlagShadowOK | FlagMonitorOK,
			},
			Static: Static{
				Speed:   200 + float64(rng.Intn(400)),
				CPUs:    cpus,
				MaxLoad: float64(cpus) * 2,
				Name:    fmt.Sprintf("m%04d", i),
			},
			Access: Access{
				ObjectRef:     fmt.Sprintf("/punch/machines/m%04d.obj", i),
				SharedAccount: "nobody",
				ExecUnitPort:  7000,
				MountMgrPort:  7001,
				Addr:          fmt.Sprintf("10.%d.%d.%d", i/65536, (i/256)%256, i%256),
			},
			Policy: Policy{
				UserGroups:    nil, // public
				ToolGroups:    toolSlice(spec.Tools, i),
				ShadowPoolRef: fmt.Sprintf("/punch/shadow/m%04d", i),
				Params: query.NewParams( // in key order, which NewParams checks
					query.Param{Key: "arch", Attr: query.StrAttr(arch)},
					query.Param{Key: "cms", Attr: query.ListAttr("sge", "pbs")},
					query.Param{Key: "domain", Attr: query.StrAttr(domain)},
					query.Param{Key: "license", Attr: query.ListAttr(toolSlice(spec.Tools, i)...)},
					query.Param{Key: "memory", Attr: query.NumAttr(mem)},
					query.Param{Key: "ostype", Attr: query.StrAttr(osFor(arch))},
					query.Param{Key: "osversion", Attr: query.StrAttr("5.8")},
					query.Param{Key: "owner", Attr: query.StrAttr(owner)},
					query.Param{Key: "swap", Attr: query.NumAttr(2 * mem)},
				),
			},
		}
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

// Build generates the fleet records as a slice.
func (spec FleetSpec) Build(now time.Time) ([]*Machine, error) {
	var out []*Machine
	err := spec.Each(now, func(m *Machine) error {
		out = append(out, m)
		return nil
	})
	return out, err
}

// Populate streams the fleet into the database: each record is generated,
// handed to the store to keep, and never held a second time.
func (spec FleetSpec) Populate(db *DB, now time.Time) error {
	return spec.Each(now, db.AddOwned)
}

func toolSlice(tools []string, i int) []string {
	if len(tools) == 0 {
		return nil
	}
	// Each machine supports a contiguous window of half the tools, so
	// tool-constrained pools have plenty of members but not everything.
	k := len(tools)/2 + 1
	out := make([]string, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, tools[(i+j)%len(tools)])
	}
	return out
}

func osFor(arch string) string {
	switch arch {
	case "sun":
		return "solaris"
	case "hp":
		return "hpux"
	case "alpha":
		return "tru64"
	default:
		return "linux"
	}
}
