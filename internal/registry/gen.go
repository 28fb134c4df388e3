package registry

import (
	"fmt"
	"math/rand"
	"strconv"
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
//
// A record costs two allocations: the struct, and one string that its four
// strings are cut from. The fleet's distinct parameter sets and tool lists
// (48 and 4 for DefaultFleetSpec) are built once per call and shared by
// every record that holds them, so fn must treat them as read-only, as the
// store does (see Policy).
func (spec FleetSpec) Each(now time.Time, fn func(*Machine) error) error {
	if spec.N <= 0 {
		return fmt.Errorf("registry: fleet size must be positive, got %d", spec.N)
	}
	if len(spec.Archs) == 0 || len(spec.Domains) == 0 {
		return fmt.Errorf("registry: fleet needs at least one arch and one domain")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	windows := make([][]string, max(len(spec.Tools), 1)) // nil when no tools
	for j := range spec.Tools {
		windows[j] = toolSlice(spec.Tools, j)
	}
	params := make(map[fleetParamsKey]query.Params)
	var buf []byte
	for i := 0; i < spec.N; i++ {
		shift := rng.Intn(4)
		mem := float64(int(128) << uint(shift)) // 128..1024 MB
		cpus := 1 + rng.Intn(4)
		speed := 200 + float64(rng.Intn(400))

		tk := i % len(windows)
		ts := windows[tk]
		pk := fleetParamsKey{arch: i % len(spec.Archs), domain: i % len(spec.Domains), owner: -1, tools: tk, shift: shift}
		if len(spec.Owners) > 0 {
			pk.owner = i % len(spec.Owners)
		}
		ps, ok := params[pk]
		if !ok {
			ps = spec.params(pk, ts, mem)
			params[pk] = ps
		}

		// "/punch/machines/<name>.obj/punch/shadow/<name>10.a.b.c", cut
		// into the object ref, the name inside it, the shadow pool ref and
		// the address.
		buf = append(buf[:0], "/punch/machines/"...)
		buf = appendMachineNumber(buf, i)
		nameEnd := len(buf)
		buf = append(buf, ".obj"...)
		objEnd := len(buf)
		buf = append(buf, "/punch/shadow/"...)
		buf = append(buf, buf[len("/punch/machines/"):nameEnd]...)
		shadowEnd := len(buf)
		buf = append(buf, "10."...)
		buf = strconv.AppendInt(buf, int64(i/65536), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64((i/256)%256), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(i%256), 10)
		strs := string(buf)

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
				Speed:   speed,
				CPUs:    cpus,
				MaxLoad: float64(cpus) * 2,
				Name:    strs[len("/punch/machines/"):nameEnd],
			},
			Access: Access{
				ObjectRef:     strs[:objEnd],
				SharedAccount: "nobody",
				ExecUnitPort:  7000,
				MountMgrPort:  7001,
				Addr:          strs[shadowEnd:],
			},
			Policy: Policy{
				UserGroups:    nil, // public
				ToolGroups:    ts,
				ShadowPoolRef: strs[objEnd:shadowEnd],
				Params:        ps,
			},
		}
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

// fleetParamsKey names one of a fleet's distinct parameter sets: the
// positions of its arch, domain, owner (-1: none given) and tool window in
// the spec's lists, and the memory size as a shift of 128 MB.
type fleetParamsKey struct {
	arch, domain, owner, tools, shift int
}

// params builds the parameter set k names.
func (spec FleetSpec) params(k fleetParamsKey, tools []string, mem float64) query.Params {
	arch := spec.Archs[k.arch]
	owner := "public"
	if k.owner >= 0 {
		owner = spec.Owners[k.owner]
	}
	return query.NewParams( // in key order, which NewParams checks
		query.Param{Key: "arch", Attr: query.StrAttr(arch)},
		query.Param{Key: "cms", Attr: query.ListAttr("sge", "pbs")},
		query.Param{Key: "domain", Attr: query.StrAttr(spec.Domains[k.domain])},
		query.Param{Key: "license", Attr: query.ListAttr(tools...)},
		query.Param{Key: "memory", Attr: query.NumAttr(mem)},
		query.Param{Key: "ostype", Attr: query.StrAttr(osFor(arch))},
		query.Param{Key: "osversion", Attr: query.StrAttr("5.8")},
		query.Param{Key: "owner", Attr: query.StrAttr(owner)},
		query.Param{Key: "swap", Attr: query.NumAttr(2 * mem)},
	)
}

// appendMachineNumber appends a machine's name, "m" and its index with at
// least four digits.
func appendMachineNumber(b []byte, i int) []byte {
	b = append(b, 'm')
	for d := 1000; d > 1 && i < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// Build generates the fleet records as a slice.
func (spec FleetSpec) Build(now time.Time) ([]*Machine, error) {
	out := make([]*Machine, 0, max(spec.N, 0))
	err := spec.Each(now, func(m *Machine) error {
		out = append(out, m)
		return nil
	})
	return out, err
}

// Populate generates the fleet and hands it to the database to keep, in
// one AddOwnedAll.
func (spec FleetSpec) Populate(db *DB, now time.Time) error {
	ms, err := spec.Build(now)
	if err != nil {
		return err
	}
	return db.AddOwnedAll(ms)
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
