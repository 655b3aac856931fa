// Command dlfmd runs a standalone DataLinks File Manager daemon: it opens
// (or recovers) the local database, starts the service daemons of Figure 5,
// and serves the DLFM RPC protocol over TCP for host databases to connect
// to — the deployment shape of the paper, where one DLFM runs next to each
// file server.
//
// Usage:
//
//	dlfmd -listen :7117 -name fs1 -wal /var/dlfm/fs1.wal
//	dlfmd -listen :7117 -name fs1 -data-dir /var/dlfm/fs1 -checkpoint-every 1m
//	dlfmd -listen :7117 -name fs1 -admin :7118 \
//	      -fleet-peers fs2=127.0.0.1:7218,fs3=127.0.0.1:7318
//
// -wal alone gives a durable log with in-memory tables, rebuilt at start
// by replaying the whole log. -data-dir keeps the tables on pages, and
// restart replays only the log past the last checkpoint, which
// -checkpoint-every takes periodically; it needs -data-dir.
//
// The file server and archive server are in-process simulations (see
// DESIGN.md); -seed-files pre-creates files so a remote host can link them.
// With -fleet-peers the -admin endpoint also serves the cluster-wide
// observability plane under /cluster/ (federated metrics, stitched
// transactions, the merged wait graph and a health verdict taken every
// second), scraping each peer's admin endpoint over HTTP.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// healthEvery is how often the fleet plane takes a health verdict: each
// verdict judges the window since the previous one.
const healthEvery = time.Second

// sampleRate maps the flag's 0 (= tracing off) onto the tracer config's
// "disabled" sentinel; in the config itself 0 means "use the default".
func sampleRate(v float64) float64 {
	if v <= 0 {
		return -1
	}
	return v
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7117", "TCP address to serve the DLFM protocol on")
	name := flag.String("name", "fs1", "file server name this DLFM manages")
	walPath := flag.String("wal", "", "write-ahead log path for the local database (empty = in-memory)")
	dataDir := flag.String("data-dir", "", "page-backed storage directory for the local database (empty = all in memory)")
	poolPages := flag.Int("pool-pages", 0, "buffer pool size in 4 KB pages (0 = default 1024; min 16)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "fuzzy checkpoint period with -data-dir (0 = only explicit checkpoints)")
	groupCommit := flag.Bool("group-commit", true, "batch concurrent commit fsyncs into one shared log write")
	timeout := flag.Duration("lock-timeout", 60*time.Second, "local database lock timeout (the paper's 60 s)")
	nextKey := flag.Bool("next-key-locking", false, "enable next-key locking in the local database (the paper disables it)")
	seed := flag.Int("seed-files", 0, "pre-create this many files under /data for experiments")
	admin := flag.String("admin", "", "HTTP admin address serving /metrics, /debug/txn/<id>, /debug/locks (empty = disabled)")
	fsyncDelay := flag.Duration("fsync-delay", 0, "modeled log-device fsync latency added to every WAL sync (0 = none)")
	fleetPeers := flag.String("fleet-peers", "", "comma-separated name=host:port admin endpoints of the other fleet members to federate on -admin's /cluster/ (empty = disabled)")
	traceRing := flag.Int("trace-ring", obs.DefaultSpanCapacity, "completed-span ring capacity per process")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of transactions traced with spans (0 disables, 1 traces all)")
	slowThreshold := flag.Duration("slow-txn-threshold", obs.DefaultSlowThreshold, "commits slower than this keep their full span tree in /debug/slow (<0 disables)")
	slowKeep := flag.Int("slow-keep", obs.DefaultSlowKeep, "how many slowest span trees /debug/slow retains")
	flag.Parse()
	if *ckptEvery != 0 && *dataDir == "" {
		log.Fatal("dlfmd: -checkpoint-every needs -data-dir: without pages there is nothing to checkpoint")
	}
	if *fleetPeers != "" && *admin == "" {
		log.Fatal("dlfmd: -fleet-peers needs -admin: the fleet plane is served on its /cluster/")
	}

	obs.SetDefaultTracerConfig(obs.TracerConfig{
		SpanCapacity:  *traceRing,
		SampleRate:    sampleRate(*traceSample),
		SlowThreshold: *slowThreshold,
		SlowKeep:      *slowKeep,
	})

	cfg := core.DefaultConfig(*name)
	cfg.DB.LogPath = *walPath
	cfg.DB.DataDir = *dataDir
	cfg.DB.PoolPages = *poolPages
	cfg.DB.CheckpointEvery = *ckptEvery
	cfg.DB.GroupCommit = *groupCommit
	if *dataDir != "" && *walPath == "" {
		cfg.DB.LogPath = filepath.Join(*dataDir, "db.wal")
	}
	cfg.DB.LockTimeout = *timeout
	cfg.DB.NextKeyLocking = *nextKey
	cfg.DB.WALSyncDelay = *fsyncDelay
	// Spans carry the member name as a component prefix ("fs1/agent"),
	// matching the in-stack convention — the fleet stitcher attributes
	// leaf time to members by that prefix.
	cfg.Tracer = obs.NewTracerDefault().Named(*name)
	cfg.Flight = obs.NewFlightRecorder(0)

	fs := fsim.NewServer(*name)
	for i := 0; i < *seed; i++ {
		path := fmt.Sprintf("/data/seed%06d", i)
		if err := fs.Create(path, "app", []byte(fmt.Sprintf("seed content %d", i))); err != nil {
			log.Fatalf("dlfmd: seed %s: %v", path, err)
		}
	}
	arch := archive.NewServer()

	srv, err := core.New(cfg, fs, arch)
	if err != nil {
		log.Fatalf("dlfmd: start DLFM: %v", err)
	}
	defer srv.Close()

	// The fleet plane federates this member with its -fleet-peers: each
	// peer is another dlfmd's admin endpoint, scraped over HTTP exactly as
	// a Prometheus server would.
	var plane *fleet.Plane
	if *fleetPeers != "" {
		sources := []fleet.Source{
			fleet.NewLocalSource(*name, srv.Tracer(), srv.WaitEdges, srv.Obs()),
		}
		for _, peer := range strings.Split(*fleetPeers, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			pname, addr, ok := strings.Cut(peer, "=")
			if !ok {
				log.Fatalf("dlfmd: -fleet-peers entry %q: want name=host:port", peer)
			}
			sources = append(sources, fleet.NewHTTPSource(pname, addr, 0))
		}
		plane = fleet.NewPlane(sources...)
		go func() {
			for range time.Tick(healthEvery) {
				plane.Check()
			}
		}()
	}

	if *admin != "" {
		adm := &obs.Admin{
			Registries: []*obs.Registry{srv.Obs()},
			Tracer:     srv.Tracer(),
			LockDump:   func() any { return srv.DB().LockManager().Dump() },
			WaitGraph:  func() any { return srv.DB().LockManager().Dump() },
			WaitEdges:  srv.WaitEdges,
			Flight:     cfg.Flight,
		}
		if plane != nil {
			// One member's admin port can answer for the whole fleet.
			adm.Mounts = map[string]http.Handler{"/cluster/": plane.Handler()}
		}
		adminSrv, err := adm.Start(*admin)
		if err != nil {
			log.Fatalf("dlfmd: admin listener: %v", err)
		}
		defer adminSrv.Close()
		log.Printf("dlfmd: admin endpoint on http://%s (/metrics, /debug/locks, /debug/txn/<id>, /debug/slow, /debug/waitgraph, /debug/waitedges)", adminSrv.Addr())
		if plane != nil {
			log.Printf("dlfmd: fleet plane on http://%s/cluster/ (metrics, txn/<id>, waitgraph, health)", adminSrv.Addr())
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dlfmd: listen %s: %v", *listen, err)
	}
	rpcSrv := rpc.Serve(ln, srv)
	log.Printf("dlfmd: DLFM for file server %q serving on %s (wal=%q, next-key=%v, seeded %d files)",
		*name, rpcSrv.Addr(), *walPath, *nextKey, *seed)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("dlfmd: shutting down")
	rpcSrv.Close()

	s := srv.Stats()
	log.Printf("dlfmd: links=%d unlinks=%d commits=%d aborts=%d compensations=%d archived=%d",
		s.Links, s.Unlinks, s.Commits, s.Aborts, s.Compensations, s.ArchiveCopies)
}
