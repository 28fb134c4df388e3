// Command actypctl is the command-line client for an actypd daemon: it
// submits queries in the native key-value language, prints the granted
// lease, optionally holds it, and releases it.
//
// Usage:
//
//	actypctl -addr host:port ping
//	actypctl -addr host:port request 'punch.rsrc.arch = sun' 'punch.rsrc.memory = >=10'
//	actypctl -addr host:port request -hold 5s -file query.txt
//
// Each "key = value" argument is one query line; -file reads the whole
// query from a file instead.
//
// The route subcommand prints the daemon's domain-ownership table (and
// resolves any domains given as arguments); watch tails the registry
// change stream, optionally scoped to a -domains list so only that slice
// travels the wire.
//
// The journal subcommand operates on a daemon's durability directory
// without dialing anything:
//
//	actypctl journal inspect /var/lib/actyp/journal
//	actypctl journal verify /var/lib/actyp/journal
//	actypctl journal compact /var/lib/actyp/journal   (daemon must be stopped)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/netsim"
	"actyp/internal/route"
	"actyp/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7464", "actypd address")
	wireCodec := flag.String("wire-codec", "auto", "wire codec preference: auto (negotiate binary, JSON floor), binary, json, binary+flate, or a comma list in preference order")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// The journal subcommand is offline file surgery — dispatch it before
	// dialing anything.
	if args[0] == "journal" {
		if err := journalCmd(args[1:]); err != nil {
			log.Fatalf("actypctl: journal: %v", err)
		}
		return
	}

	codecs, err := wire.ParseCodecs(*wireCodec)
	if err != nil {
		log.Fatalf("actypctl: %v", err)
	}
	client, err := core.DialOpts(*addr, netsim.Local(), core.DialConfig{Codecs: codecs})
	if err != nil {
		log.Fatalf("actypctl: %v", err)
	}
	defer client.Close()

	switch args[0] {
	case "ping":
		start := time.Now()
		if err := client.Ping(); err != nil {
			log.Fatalf("actypctl: ping: %v", err)
		}
		fmt.Printf("pong in %v\n", time.Since(start))
	case "request":
		if err := request(client, args[1:]); err != nil {
			log.Fatalf("actypctl: %v", err)
		}
	case "route":
		if err := routeCmd(client, args[1:]); err != nil {
			log.Fatalf("actypctl: route: %v", err)
		}
	case "watch":
		if err := watchCmd(client, args[1:]); err != nil {
			log.Fatalf("actypctl: watch: %v", err)
		}
	default:
		usage()
	}
}

// routeCmd prints the daemon's domain-ownership table: whether
// partitioning is enabled, the rendezvous node set, the static
// assignments, and the resolved owner of every domain named on the
// command line.
func routeCmd(client *core.Client, args []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reply, err := client.Route(ctx, args...)
	if err != nil {
		return err
	}
	if !reply.Enabled {
		fmt.Printf("partitioning: off (node %s owns the whole namespace)\n", reply.Node)
	} else {
		fmt.Printf("partitioning: on\n")
	}
	fmt.Printf("node:         %s\n", reply.Node)
	if len(reply.Nodes) > 0 {
		fmt.Printf("rendezvous:   %s\n", strings.Join(reply.Nodes, ", "))
	}
	for _, e := range reply.Entries {
		kind := "rendezvous"
		if e.Static {
			kind = "static"
		}
		fmt.Printf("domain %-16s -> %s (%s)\n", e.Domain, e.Owner, kind)
	}
	return nil
}

// watchCmd subscribes to the daemon's registry change stream and prints
// events as they arrive; -domains rides the domain-scoped watch filter so
// only the named domains' slice travels the wire. Runs until killed.
func watchCmd(client *core.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	domains := fs.String("domains", "", "comma-separated domains to watch (empty watches everything)")
	filter := fs.String("filter", "", "raw basic-query filter (mutually exclusive with -domains)")
	ring := fs.Int("ring", 0, "server-side event ring size (0 or above the server default uses the default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *domains != "" && *filter != "" {
		return fmt.Errorf("-domains and -filter are mutually exclusive")
	}
	text := *filter
	if *domains != "" {
		text = route.FilterAny(strings.Split(*domains, ","))
	}
	st, err := client.WatchSubscribe(context.Background(), text, *ring)
	if err != nil {
		return err
	}
	defer st.Close()
	if text != "" {
		fmt.Printf("watching [%s]\n", text)
	}
	for {
		batch, err := st.Recv()
		if err != nil {
			return err
		}
		if batch.Resync {
			fmt.Println("-- resync: the server's event ring overflowed and dropped events; re-fetch for fidelity --")
		}
		for _, ev := range batch.Events {
			domain := ""
			if ev.Machine != nil {
				domain = route.MachineDomain(ev.Machine)
			}
			if domain != "" {
				fmt.Printf("%s %s (domain %s)\n", ev.Kind, ev.Name, domain)
			} else {
				fmt.Printf("%s %s\n", ev.Kind, ev.Name)
			}
		}
	}
}

func request(client *core.Client, args []string) error {
	fs := flag.NewFlagSet("request", flag.ExitOnError)
	hold := fs.Duration("hold", 0, "hold the lease this long before releasing")
	file := fs.String("file", "", "read the query from this file")
	lang := fs.String("lang", "", "query language (default native)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var text string
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		text = string(raw)
	} else {
		text = strings.Join(fs.Args(), "\n")
	}
	if strings.TrimSpace(text) == "" {
		return fmt.Errorf("empty query: pass 'key = value' arguments or -file")
	}

	start := time.Now()
	grant, err := client.RequestLang(*lang, text)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("machine:   %s\n", grant.Lease.Machine)
	fmt.Printf("address:   %s:%d\n", grant.Lease.Addr, grant.Lease.ExecUnitPort)
	fmt.Printf("mountmgr:  port %d\n", grant.Lease.MountMgrPort)
	fmt.Printf("accesskey: %s\n", grant.Lease.AccessKey)
	fmt.Printf("shadow:    %s (uid %d)\n", grant.Shadow.User, grant.Shadow.UID)
	fmt.Printf("pool:      %s\n", grant.Lease.Pool)
	fmt.Printf("fragments: %d (%d succeeded)\n", grant.Fragments, grant.Succeeded)
	fmt.Printf("response:  %v\n", elapsed)

	if *hold > 0 {
		fmt.Printf("holding for %v...\n", *hold)
		time.Sleep(*hold)
	}
	if err := client.Release(grant); err != nil {
		return err
	}
	fmt.Println("released")
	return nil
}

// journalCmd inspects, verifies, or compacts a journal directory.
func journalCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("want: journal inspect|verify|compact <dir>")
	}
	verb, dir := args[0], args[1]
	switch verb {
	case "inspect":
		info, err := journal.Inspect(dir)
		if err != nil {
			return err
		}
		for _, si := range info.Snapshots {
			status := fmt.Sprintf("%d machines, %d leases", si.Machines, si.Leases)
			if si.Err != "" {
				status = "UNLOADABLE: " + si.Err
			}
			fmt.Printf("snapshot %8d  %9d bytes  %s\n", si.Seq, si.Bytes, status)
		}
		for _, si := range info.Segments {
			fmt.Printf("segment  %8d  %9d bytes  %d records (%d event batches, %d lease ops, %d resyncs)",
				si.Seq, si.Bytes, si.Records, si.Events, si.Leases, si.Resyncs)
			if si.Err != "" {
				fmt.Printf("  [tail: %s]", si.Err)
			}
			fmt.Println()
		}
		if len(info.Snapshots) == 0 && len(info.Segments) == 0 {
			fmt.Println("empty journal directory")
		}
	case "verify":
		issues, err := journal.Verify(dir)
		if err != nil {
			return err
		}
		if len(issues) == 0 {
			fmt.Println("ok: every record CRC checks out")
			return nil
		}
		for _, issue := range issues {
			fmt.Println(issue)
		}
		os.Exit(1)
	case "compact":
		removed, err := journal.CompactOffline(dir)
		if err != nil {
			return err
		}
		fmt.Printf("compacted: %d files removed\n", removed)
	default:
		return fmt.Errorf("unknown verb %q (want inspect, verify or compact)", verb)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  actypctl [-addr host:port] [-wire-codec spec] ping
  actypctl [-addr host:port] [-wire-codec spec] request [-hold d] [-lang name] [-file f] ['key = value' ...]
  actypctl [-addr host:port] route [domain ...]
  actypctl [-addr host:port] watch [-domains d1,d2] [-filter expr] [-ring n]
  actypctl journal inspect|verify|compact <dir>
`)
	os.Exit(2)
}
