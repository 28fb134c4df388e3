// Command punchsim replays a synthetic PUNCH day through the full stack:
// a fleet, the ActYP service, the application-management component, and a
// population of desktop users submitting background jobs plus class
// bursts. It reports turnaround statistics, pool locality, and the
// CPU-time distribution of the simulated runs (the Figure 9 shape).
//
// Usage:
//
//	punchsim [-machines 256] [-background 500] [-students 40] [-runs 3] [-workers 32]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"actyp/internal/appmgr"
	"actyp/internal/core"
	"actyp/internal/desktop"
	"actyp/internal/metrics"
	"actyp/internal/perfmodel"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/vfs"
	"actyp/internal/workload"
)

func main() {
	var (
		machines   = flag.Int("machines", 256, "fleet size")
		background = flag.Int("background", 500, "background jobs")
		students   = flag.Int("students", 40, "students in the class burst")
		runs       = flag.Int("runs", 3, "runs per student")
		workers    = flag.Int("workers", 32, "concurrent submission workers")
		seed       = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	if err := run(*machines, *background, *students, *runs, *workers, *seed); err != nil {
		log.Fatalf("punchsim: %v", err)
	}
}

func run(machines, background, students, runs, workers int, seed int64) error {
	// Build the fleet, then grant every machine all tool licenses and
	// tool groups: punchsim models a site whose software is uniformly
	// installed, so per-tool pools contend on machines, not licenses.
	allTools := []string{"tsuprem4", "spice", "matlab", "montecarlo"}
	db := registry.NewDB()
	fleet, err := registry.DefaultFleetSpec(machines).Build(time.Now())
	if err != nil {
		return err
	}
	for _, m := range fleet {
		m.Policy.ToolGroups = append([]string(nil), allTools...)
		m.Policy.ToolGroups = append(m.Policy.ToolGroups, "transport")
		m.Policy.Params = m.Policy.Params.With("license", query.ListAttr(allTools...))
		if err := db.Add(m); err != nil {
			return err
		}
	}
	// Cap dynamic pools at an eighth of the fleet so overlapping
	// per-license criteria share the machines instead of the first pool
	// taking everything.
	svc, err := core.New(core.Options{
		DB:              db,
		MonitorInterval: 100 * time.Millisecond,
		Seed:            seed,
		MaxPoolSize:     machines / 8,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	perf := perfmodel.NewService(0.2)
	for _, m := range perfmodel.PunchModels() {
		if err := perf.Register(m); err != nil {
			return err
		}
	}
	app := appmgr.New(perf)
	if err := appmgr.PunchKnowledgeBase(app); err != nil {
		return err
	}
	desk, err := desktop.New(desktop.Config{App: app, ActYP: svc, VFS: vfs.NewManager()})
	if err != nil {
		return err
	}

	// User population: students plus a public background crowd.
	for i := 0; i < students; i++ {
		if err := desk.AddUser(desktop.User{Login: fmt.Sprintf("student%03d", i), Group: "ece"}); err != nil {
			return err
		}
	}
	for i := 0; i < 200; i++ {
		if err := desk.AddUser(desktop.User{Login: fmt.Sprintf("user%03d", i), Group: "public"}); err != nil {
			return err
		}
	}

	tools := app.Tools()
	gen, err := workload.NewGenerator(seed, tools)
	if err != nil {
		return err
	}
	stream := workload.Merge(
		gen.Background(background, time.Millisecond),
		gen.Burst(workload.BurstSpec{
			Tool: "spice", Students: students, Runs: runs,
			Think: 2 * time.Millisecond, Group: "ece",
		}),
	)
	fmt.Printf("replaying %d jobs (%d background + %d burst) over %d machines with %d workers\n",
		len(stream), background, students*runs, machines, workers)

	turnaround := metrics.NewRecorder()
	queueTime := metrics.NewRecorder()
	cpuHist, err := metrics.NewHistogram(0, 1000, 50)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	failures := map[string]int{}

	jobs := make(chan workload.Job)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				// Transient exhaustion (every machine of a capped pool
				// busy) is expected under burst concurrency; desktops
				// retry with a short backoff before reporting failure.
				var res *desktop.RunResult
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					res, err = desk.RunTool(j.User, j.Tool, nil)
					if err == nil {
						break
					}
					time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
				}
				if err != nil {
					mu.Lock()
					failures[j.Tool]++
					mu.Unlock()
					continue
				}
				turnaround.Record(time.Since(t0))
				queueTime.Record(res.Queue)
				// The histogram tracks the workload's CPU demand (the
				// Figure 9 distribution), not the tool estimate.
				cpuHist.Observe(j.CPUSeconds)
			}
		}()
	}
	for _, j := range stream {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	completed, denied := desk.Stats()
	fmt.Printf("\ncompleted %d runs in %v (%d denied)\n", completed, elapsed.Round(time.Millisecond), denied)
	fmt.Printf("turnaround: %s\n", turnaround.Summary())
	fmt.Printf("actyp queue time: %s\n", queueTime.Summary())
	if len(failures) > 0 {
		fmt.Printf("failures by tool: %v\n", failures)
	}

	fmt.Println("\npool locality (pools created on the fly):")
	sizes := svc.PoolSizes()
	insts := make([]string, 0, len(sizes))
	for inst := range sizes {
		insts = append(insts, inst)
	}
	sort.Strings(insts)
	for _, inst := range insts {
		fmt.Printf("  %-64s %4d machines\n", inst, sizes[inst])
	}
	for _, pm := range svc.PoolManagers() {
		resolved, created, forwarded, failed := pm.Stats()
		fmt.Printf("pool manager %s: resolved=%d created=%d forwarded=%d failed=%d\n",
			pm.Name(), resolved, created, forwarded, failed)
	}

	fmt.Println("\nsimulated CPU-time distribution (first buckets, Figure 9 shape):")
	for i, b := range cpuHist.Buckets() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %5.0f-%5.0fs %6d runs\n", b.Edge, b.Edge+20, b.Count)
	}
	edge, count := cpuHist.PeakBucket()
	fmt.Printf("mode: bucket starting at %.0fs with %d runs; mean %.1fs over %d runs\n",
		edge, count, cpuHist.Mean(), cpuHist.Count())
	return nil
}
