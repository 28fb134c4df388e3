package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"actyp/internal/query"
)

// oracleEach is the fleet generator as it was written first, a record at a
// time with fmt.Sprintf and fresh parameters for each: the oracle Each must
// match byte for byte, since the benchmark's pools and predicates, and
// every figure, are built over these fleets.
func oracleEach(spec FleetSpec, now time.Time, fn func(*Machine)) {
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.N; i++ {
		arch := spec.Archs[i%len(spec.Archs)]
		domain := spec.Domains[i%len(spec.Domains)]
		owner := "public"
		if len(spec.Owners) > 0 {
			owner = spec.Owners[i%len(spec.Owners)]
		}
		mem := float64(int(128) << uint(rng.Intn(4)))
		cpus := 1 + rng.Intn(4)
		fn(&Machine{
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
				UserGroups:    nil,
				ToolGroups:    toolSlice(spec.Tools, i),
				ShadowPoolRef: fmt.Sprintf("/punch/shadow/m%04d", i),
				Params: query.NewParams(
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
		})
	}
}

// TestFleetByteForByte holds Each to the oracle: the same records, in the
// same order, each encoding to the same JSON, for both fleet shapes at one
// record, at 10k (the benchmark's fleet) and past m9999.
func TestFleetByteForByte(t *testing.T) {
	now := time.Unix(1000000000, 0).UTC()
	specs := map[string]func(int) FleetSpec{"default": DefaultFleetSpec, "homogeneous": HomogeneousFleetSpec}
	for shape, mk := range specs {
		for _, n := range []int{1, 10000, 12000} {
			t.Run(fmt.Sprintf("%s/%d", shape, n), func(t *testing.T) {
				got, err := mk(n).Build(now)
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				oracleEach(mk(n), now, func(want *Machine) {
					if i >= len(got) {
						t.Fatalf("Each made %d records, the oracle more", len(got))
					}
					a, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(got[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("record %d:\noracle: %s\nEach:   %s", i, a, b)
					}
					i++
				})
				if i != len(got) {
					t.Fatalf("Each made %d records, the oracle %d", len(got), i)
				}
			})
		}
	}
}

// TestPopulateAllocs pins what booting a fleet costs the heap: allocations
// and bytes allocated per record generated and stored, for a 10k default
// fleet on an 8-shard store (the default engine's count at GOMAXPROCS 2; a
// shard's batch costs a few hundred allocations of its own). A record at a
// time, with fmt.Sprintf and fresh parameters per record, it was 18.2
// allocations and 2115 bytes (go1.24, linux/amd64). Generating a record
// now takes two allocations, and storing a batch allocates only its sized
// lists and maps: 2.25 allocations and 704 bytes a record. The bars are
// 2.5 and 800.
func TestPopulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := NewDBWith(NewSharded(8))
	if err := DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f allocations and %.0f bytes allocated per record", allocs, bytes)
	if allocs > 2.5 {
		t.Errorf("%.2f allocations per record, want at most 2.5", allocs)
	}
	if bytes > 800 {
		t.Errorf("%.0f bytes allocated per record, want at most 800", bytes)
	}
	runtime.KeepAlive(db)
}

// BenchmarkRegistryPopulate times a boot's population: a default fleet
// generated and stored on the default engine, at the benchmark's fleet
// and at 160k, where a record-at-a-time insert was superlinear (names
// past m9999 sort between m1000 and m1001).
func BenchmarkRegistryPopulate(b *testing.B) {
	for _, n := range []int{10000, 160000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := NewDB()
				if err := DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
