// Command actyp-fleet manages white-pages snapshots: it generates
// synthetic fleets, prints database statistics, and edits administrator
// parameters (field 20) — the operations a PUNCH site administrator
// performs on the resource database.
//
// Usage:
//
//	actyp-fleet gen -n 3200 -out fleet.json [-homogeneous]
//	actyp-fleet stats -db fleet.json
//	actyp-fleet set -db fleet.json -machine m0001 -key owner -value ece -out fleet.json
//	actyp-fleet mirror -addr host:7464 -out fleet.snap [-watch] [-filter expr] [-domains d1,d2]
//
// Mirrors are saved in the durability journal's snapshot encoding by
// default, so a mirror file doubles as a recovery seed (actypd -db
// accepts it directly); -format json keeps the legacy JSON shape. Every
// subcommand that reads a database sniffs the format, so both work
// everywhere a -db flag is taken.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/netsim"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/route"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = genCmd(os.Args[2:])
	case "stats":
		err = statsCmd(os.Args[2:])
	case "set":
		err = setCmd(os.Args[2:])
	case "mirror":
		err = mirrorCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatalf("actyp-fleet: %v", err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  actyp-fleet gen   -n N -out file [-homogeneous] [-seed S]
  actyp-fleet stats -db file
  actyp-fleet set   -db file -machine name -key k -value v [-out file]
  actyp-fleet mirror -addr host:port -out file [-format snapshot|json] [-watch] [-filter expr] [-domains d1,d2] [-profile p]
`)
	os.Exit(2)
}

// mirrorCmd snapshots a live actypd registry over the wire. Without
// -watch it performs one snapshot fetch; with -watch it subscribes to the
// change stream and waits for the replica to baseline.
func mirrorCmd(args []string) error {
	fs := flag.NewFlagSet("mirror", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7464", "actypd wire endpoint to mirror")
	out := fs.String("out", "fleet.snap", "output file")
	format := fs.String("format", "snapshot", "output encoding: snapshot (journal snapshot format, a valid recovery seed) or json (legacy)")
	filter := fs.String("filter", "", "server-side basic-query filter, e.g. \"punch.rsrc.arch = sun\"")
	domains := fs.String("domains", "", "mirror only these comma-separated domains (a domain-scoped watch filter; mutually exclusive with -filter)")
	watch := fs.Bool("watch", false, "baseline through the watch stream instead of a single snapshot fetch")
	profile := fs.String("profile", "local", "network profile: local, lan or wan")
	timeout := fs.Duration("timeout", 30*time.Second, "overall deadline for the mirror")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "snapshot" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want snapshot or json)", *format)
	}
	if *domains != "" {
		// A domain mirror rides the domain-scoped watch filter: the server
		// ships only the named domains' slice instead of the whole fleet.
		if *filter != "" {
			return fmt.Errorf("-domains and -filter are mutually exclusive")
		}
		*filter = route.FilterAny(strings.Split(*domains, ","))
	}
	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	c, err := core.Dial(*addr, prof)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	db := registry.NewDB()
	mode := "fetch"
	if *watch {
		w, err := registry.StartRemoteWatch(registry.RemoteWatchConfig{
			Transport: c, Replica: db, Filter: *filter,
		})
		if err != nil {
			return err
		}
		defer w.Close()
		if err := w.WaitSynced(ctx); err != nil {
			return err
		}
		mode = string(w.Mode())
	} else {
		ms, err := c.FetchSnapshot(ctx, *filter)
		if err != nil {
			return err
		}
		for _, m := range ms {
			if err := db.Add(m); err != nil {
				return err
			}
		}
	}
	if err := saveDB(db, *out, *format == "snapshot"); err != nil {
		return err
	}
	fmt.Printf("mirrored %d machines from %s to %s (%s mode, %s format)\n", db.Len(), *addr, *out, mode, *format)
	return nil
}

// saveDB writes a database either in the journal snapshot encoding
// (pageable, recovery-seed compatible) or as legacy JSON.
func saveDB(db *registry.DB, path string, asSnapshot bool) error {
	if asSnapshot {
		var ms []*registry.Machine
		db.Walk(func(m *registry.Machine) bool {
			ms = append(ms, m)
			return true
		})
		_, err := journal.WriteSnapshotFile(path, journal.SliceSource(ms), nil)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Save(f)
}

func profileByName(name string) (netsim.Profile, error) {
	switch name {
	case "local", "":
		return netsim.Local(), nil
	case "lan":
		return netsim.LAN(), nil
	case "wan":
		return netsim.WAN(), nil
	}
	return netsim.Profile{}, fmt.Errorf("unknown profile %q (want local, lan or wan)", name)
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 256, "fleet size")
	out := fs.String("out", "fleet.json", "output snapshot")
	homogeneous := fs.Bool("homogeneous", false, "all-sun single-domain fleet (the hot-spot setup)")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := registry.DefaultFleetSpec(*n)
	if *homogeneous {
		spec = registry.HomogeneousFleetSpec(*n)
	}
	spec.Seed = *seed
	db := registry.NewDB()
	if err := spec.Populate(db, time.Now()); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d machines to %s\n", db.Len(), *out)
	return nil
}

// loadDB reads either encoding, reporting which one it found so writers
// can preserve it.
func loadDB(path string) (db *registry.DB, isSnapshot bool, err error) {
	db = registry.NewDB()
	if journal.IsSnapshotFile(path) {
		ms, _, err := journal.ReadSnapshotFile(path)
		if err != nil {
			return nil, false, err
		}
		if err := db.AddOwnedAll(ms); err != nil {
			return nil, false, err
		}
		return db, true, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if err := db.Load(f); err != nil {
		return nil, false, err
	}
	return db, false, nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("db", "fleet.json", "snapshot to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, _, err := loadDB(*path)
	if err != nil {
		return err
	}

	states := map[string]int{}
	archs := map[string]int{}
	domains := map[string]int{}
	taken := 0
	var totalMem, totalSpeed float64
	cpus := 0
	db.Walk(func(m *registry.Machine) bool {
		states[m.State.String()]++
		arch, _ := m.Policy.Params.Get("arch")
		domain, _ := m.Policy.Params.Get("domain")
		mem, _ := m.Policy.Params.Get("memory")
		archs[arch.Str]++
		domains[domain.Str]++
		if m.TakenBy != "" {
			taken++
		}
		totalMem += mem.Num
		totalSpeed += m.Static.Speed
		cpus += m.Static.CPUs
		return true
	})
	n := db.Len()
	fmt.Printf("machines: %d (%d CPUs, %d held by pools)\n", n, cpus, taken)
	fmt.Printf("states:   %v\n", states)
	fmt.Printf("archs:    %s\n", fmtCounts(archs))
	fmt.Printf("domains:  %s\n", fmtCounts(domains))
	if n > 0 {
		fmt.Printf("averages: %.0f MB memory, %.0f speed units\n", totalMem/float64(n), totalSpeed/float64(n))
	}
	return nil
}

func setCmd(args []string) error {
	fs := flag.NewFlagSet("set", flag.ExitOnError)
	path := fs.String("db", "fleet.json", "snapshot to edit")
	machine := fs.String("machine", "", "machine name")
	key := fs.String("key", "", "admin parameter name (field 20)")
	value := fs.String("value", "", "parameter value")
	out := fs.String("out", "", "output snapshot (default: overwrite input)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *machine == "" || *key == "" || *value == "" {
		return fmt.Errorf("set needs -machine, -key and -value")
	}
	db, isSnap, err := loadDB(*path)
	if err != nil {
		return err
	}
	if err := db.SetParam(*machine, *key, query.StrAttr(*value)); err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = *path
	}
	if err := saveDB(db, dst, isSnap); err != nil {
		return err
	}
	fmt.Printf("set %s.%s = %s (snapshot %s)\n", *machine, *key, *value, dst)
	return nil
}

func fmtCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%s=%d", k, m[k])
	}
	return s
}
