package pool

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"actyp/internal/policy"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// The differential test drives randomized operation sequences against the
// indexed engine and the single-mutex oracle in lockstep, asserting that
// every observable outcome stays identical — the shadow-oracle pattern
// internal/registry uses to pin its storage engines to each other,
// applied to the lease pipeline.

// diffFleet builds a gate-diverse fleet: varied user groups, tool groups,
// usage-policy references, loads, and CPU counts, so the indexed engine's
// eligibility buckets and the dynamic per-candidate checks all get
// exercised.
func diffFleet(t *testing.T, rng *rand.Rand, n int) []*registry.Machine {
	t.Helper()
	userGroups := [][]string{nil, {"ece"}, {"cs"}, {"ece", "cs"}, {"guest"}}
	toolGroups := [][]string{nil, {"spice"}, {"tsuprem4"}, {"spice", "tsuprem4"}}
	policies := []string{"", "no-guests", "light-load", "ghost-ref"}
	archs := []string{"sun", "sun", "sun", "hp"}
	out := make([]*registry.Machine, n)
	for i := range out {
		out[i] = &registry.Machine{
			State: registry.StateUp,
			Dynamic: registry.Dynamic{
				Load:       float64(rng.Intn(30)) / 10,
				ActiveJobs: rng.Intn(3),
				FreeMemory: float64(int(64) << uint(rng.Intn(5))),
				FreeSwap:   512,
				LastUpdate: time.Unix(1000000000, 0).UTC(),
			},
			Static: registry.Static{
				Name:    fmt.Sprintf("d%03d", i),
				Speed:   100 + float64(rng.Intn(400)),
				CPUs:    1 + rng.Intn(8),
				MaxLoad: 2 + float64(rng.Intn(6)),
			},
			Access: registry.Access{
				Addr:         fmt.Sprintf("10.0.0.%d", i+1),
				ExecUnitPort: 5000 + i,
				MountMgrPort: 6000 + i,
			},
			Policy: registry.Policy{
				UserGroups:  userGroups[rng.Intn(len(userGroups))],
				ToolGroups:  toolGroups[rng.Intn(len(toolGroups))],
				UsagePolicy: policies[rng.Intn(len(policies))],
				Params:      query.NewParams(query.Param{Key: "arch", Attr: query.StrAttr(archs[rng.Intn(len(archs))])}),
			},
		}
	}
	return out
}

func diffPolicyStore(t *testing.T) *policy.Store {
	t.Helper()
	store := policy.NewStore()
	for ref, text := range map[string]string{
		"no-guests":  "deny if group == guest\nallow",
		"light-load": "deny if load >= 2\nallow",
	} {
		if err := store.Register(ref, text); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// diffAllocQuery builds a random allocation query: gate conditions in
// random combinations, sometimes with extra rsrc constraints so the
// mis-routed re-verification path runs too.
func diffAllocQuery(t *testing.T, rng *rand.Rand) *query.Query {
	t.Helper()
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		group := []string{"ece", "cs", "guest", "physics"}[rng.Intn(4)]
		q.Set("punch.user.accessgroup", query.Eq(group))
	}
	if rng.Intn(3) == 0 {
		tool := []string{"spice", "tsuprem4", "matlab"}[rng.Intn(3)]
		q.Set("punch.appl.tool", query.Eq(tool))
	}
	if rng.Intn(3) == 0 {
		q.Set("punch.user.login", query.Eq("kapadia"))
	}
	if rng.Intn(4) == 0 {
		// Extra rsrc condition: the query's name no longer matches the
		// pool's, forcing per-machine re-verification.
		q.Set("punch.rsrc.speed", query.Ge(float64(150+rng.Intn(250))))
	}
	return q
}

// diffLease pairs the two engines' ids for the same logical lease.
type diffLease struct {
	oracleID, indexedID string
	machine             string
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func TestDifferentialIndexedVsOracle(t *testing.T) {
	objectives := []schedule.Objective{
		schedule.LeastLoad{}, schedule.MostMemory{}, schedule.FewestJobs{},
		schedule.FastestCPU{}, &schedule.RoundRobin{},
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			db := registry.NewDB()
			machines := diffFleet(t, rng, 24+rng.Intn(40))
			members := make([]string, len(machines))
			for i, m := range machines {
				if err := db.Add(m); err != nil {
					t.Fatal(err)
				}
				members[i] = m.Static.Name
			}
			store := diffPolicyStore(t)
			clk := &fakeClock{now: time.Unix(2000, 0)}

			name := sunName(t)
			instance := rng.Intn(3)
			replicas := 1 + rng.Intn(3)
			mk := func(engine string) *Pool {
				p, err := New(Config{
					Name:     name,
					Instance: instance,
					Replicas: replicas,
					DB:       db,
					Members:  members,
					// Objective values are stateless except RoundRobin,
					// whose Less is constant, so sharing is safe.
					Objective: objectives[int(seed)%len(objectives)],
					Policies:  store,
					Clock:     clk.Now,
					LeaseTTL:  time.Minute,
					Engine:    engine,
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			oracle := mk(EngineOracle)
			subject := mk(EngineIndexed)
			if oracle.Engine() != EngineOracle || subject.Engine() != EngineIndexed {
				t.Fatalf("engines = %q/%q", oracle.Engine(), subject.Engine())
			}

			var live []diffLease
			steps := 2500
			if testing.Short() {
				steps = 500
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); op {
				case 0, 1, 2, 3: // Allocate
					q := diffAllocQuery(t, rng)
					l1, e1 := oracle.Allocate(q)
					l2, e2 := subject.Allocate(q)
					if (e1 == nil) != (e2 == nil) || (e1 == ErrExhausted) != (e2 == ErrExhausted) {
						t.Fatalf("step %d: Allocate err diverged: oracle %v, indexed %v\nquery:\n%s", step, e1, e2, q)
					}
					if e1 != nil {
						continue
					}
					if l1.Machine != l2.Machine {
						t.Fatalf("step %d: Allocate diverged: oracle %s, indexed %s\nquery:\n%s", step, l1.Machine, l2.Machine, q)
					}
					live = append(live, diffLease{l1.ID, l2.ID, l1.Machine})
				case 4, 5: // Release a random live lease (or a bogus id)
					if len(live) == 0 || rng.Intn(8) == 0 {
						e1 := oracle.Release("bogus")
						e2 := subject.Release("bogus")
						if (e1 == nil) != (e2 == nil) {
							t.Fatalf("step %d: bogus Release diverged: %v vs %v", step, e1, e2)
						}
						continue
					}
					i := rng.Intn(len(live))
					e1 := oracle.Release(live[i].oracleID)
					e2 := subject.Release(live[i].indexedID)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Release diverged: %v vs %v", step, e1, e2)
					}
					live = append(live[:i], live[i+1:]...)
				case 6: // Renew a random live lease
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					e1 := oracle.Renew(live[i].oracleID)
					e2 := subject.Renew(live[i].indexedID)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Renew diverged: %v vs %v", step, e1, e2)
					}
				case 7: // Advance the clock and reap expired leases
					clk.Advance(time.Duration(rng.Intn(90)) * time.Second)
					r1, r2 := oracle.Reap(), subject.Reap()
					if len(r1) != len(r2) {
						t.Fatalf("step %d: Reap count diverged: %d vs %d", step, len(r1), len(r2))
					}
					reapedO := map[string]bool{}
					for _, id := range r1 {
						reapedO[id] = true
					}
					reapedX := map[string]bool{}
					for _, id := range r2 {
						reapedX[id] = true
					}
					// Per-lease agreement plus equal counts pins the two
					// engines to reaping the same machine set.
					var kept []diffLease
					for _, l := range live {
						if reapedO[l.oracleID] != reapedX[l.indexedID] {
							t.Fatalf("step %d: Reap membership diverged for machine %s", step, l.machine)
						}
						if !reapedO[l.oracleID] {
							kept = append(kept, l)
						}
					}
					live = kept
				case 8: // Monitor updates + state flaps, folded in by Refresh
					for i := 0; i < 1+rng.Intn(6); i++ {
						name := members[rng.Intn(len(members))]
						m, err := db.Get(name)
						if err != nil {
							t.Fatal(err)
						}
						d := m.Dynamic
						d.Load = float64(rng.Intn(40)) / 10
						d.ActiveJobs = rng.Intn(5)
						d.FreeMemory = float64(rng.Intn(2048))
						d.LastUpdate = time.Unix(1000001000+int64(step), 0).UTC()
						if err := db.UpdateDynamic(name, d); err != nil {
							t.Fatal(err)
						}
						if rng.Intn(4) == 0 {
							if err := db.SetState(name, registry.State(rng.Intn(3))); err != nil {
								t.Fatal(err)
							}
						}
					}
					oracle.Refresh()
					subject.Refresh()
				case 9: // Gate change: re-register a machine with new groups,
					// forcing the indexed engine to re-bucket on Refresh.
					name := members[rng.Intn(len(members))]
					m, err := db.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					m.Policy.UserGroups = [][]string{nil, {"ece"}, {"cs"}, {"guest"}}[rng.Intn(4)]
					m.Policy.UsagePolicy = []string{"", "no-guests", "light-load"}[rng.Intn(3)]
					if err := db.Remove(name); err != nil {
						t.Fatal(err)
					}
					if err := db.Add(m); err != nil {
						t.Fatal(err)
					}
					oracle.Refresh()
					subject.Refresh()
				}

				if step%100 == 0 {
					if oracle.Free() != subject.Free() {
						t.Fatalf("step %d: Free diverged: %d vs %d", step, oracle.Free(), subject.Free())
					}
					if oracle.Size() != subject.Size() {
						t.Fatalf("step %d: Size diverged", step)
					}
				}
			}

			// Final state: counters, membership, and full drain must agree.
			a1, mi1, _ := oracle.Stats()
			a2, mi2, _ := subject.Stats()
			if a1 != a2 || mi1 != mi2 {
				t.Errorf("stats diverged: oracle %d/%d, indexed %d/%d", a1, mi1, a2, mi2)
			}
			o1, o2 := sortedStrings(oracle.Members()), sortedStrings(subject.Members())
			if len(o1) != len(o2) {
				t.Fatalf("member counts diverged")
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("members diverged at %d: %s vs %s", i, o1[i], o2[i])
				}
			}
			for _, l := range live {
				if err := oracle.Release(l.oracleID); err != nil {
					t.Errorf("oracle drain: %v", err)
				}
				if err := subject.Release(l.indexedID); err != nil {
					t.Errorf("indexed drain: %v", err)
				}
			}
			if oracle.Free() != oracle.Size() || subject.Free() != subject.Size() {
				t.Errorf("drain incomplete: oracle %d/%d, indexed %d/%d",
					oracle.Free(), oracle.Size(), subject.Free(), subject.Size())
			}
		})
	}
}
