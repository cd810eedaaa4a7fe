// Command whirlpoold serves top-k XML queries over HTTP. It loads one
// document (XML or .wpxs snapshot) at startup and answers concurrent
// queries with the Whirlpool engine.
//
//	whirlpoold -file site.xml -addr :8080
//	whirlpoold -snapshot site.wpxs -addr :8080   # mmap, no parse
//
// -file boots by parsing the XML once into columns and building the
// postings and the structure synopsis from them concurrently; /metrics
// reports the boot in whirlpoold_load_us. -snapshot boots from a
// zero-copy snapshot instead: startup skips the parse and the postings
// and synopsis builds, validating the mapped columns, postings and
// synopsis and deriving only the level and position columns on the
// heap, so node columns, postings, values and synopsis statistics are
// served from mapped pages that concurrent daemons share in one kernel
// page cache; /metrics reports the open in whirlpoold_snapshot_open_us.
// A -file given alongside acts as a fallback when the snapshot is
// missing or corrupt. Either way the engine runs on document ordinals
// and answers are rendered from the columns: no boot and no request
// builds the *Node slab.
//
// Endpoints:
//
//	GET  /healthz          → 200 "ok"
//	GET  /stats            → document, cache and per-engine statistics (JSON)
//	GET  /metrics          → request/engine metrics (JSON; ?format=prometheus
//	                         for Prometheus text exposition)
//	POST /query            → top-k evaluation (JSON in/out)
//
// POST /query body:
//
//	{
//	  "query": "//item[./description/parlist]",
//	  "k": 10,
//	  "exact": false,
//	  "algorithm": "whirlpool-s",     // optional
//	  "timeout_ms": 2000              // optional
//	}
//
// -cache bounds both LRU caches (engines per request signature, query
// plans per canonical pattern) to that many entries each; -access-log
// emits one JSON line per request to stderr. -shards N evaluates every
// query in N shards: its roots, in document order, are cut into N
// contiguous ranges of equal count, and one run of its engine per range
// is driven whole by one of min(GOMAXPROCS, N) pool workers that claim
// ranges in turn, all pruning against a shared top-k set; /stats reports the shard count.
//
// A request is refused with 400 when k exceeds 1000 or the pattern has
// more than 32 nodes, with 413 when its body exceeds 1 MiB; a handler
// that panics answers 500 (whirlpoold_panics_total) and the daemon
// serves on. Connections carry read, write and idle deadlines; SIGINT
// or SIGTERM closes the listener and gives requests in flight ten
// seconds to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
)

// Connection limits. A request is a line of XPath, so the header and
// body deadlines are short; the write deadline has to outlast the
// slowest query a client may run without a timeout_ms of its own.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	// shutdownGrace is how long in-flight requests get to finish after
	// SIGINT/SIGTERM closed the listener.
	shutdownGrace = 10 * time.Second
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve runs srv on ln until it fails or ctx is cancelled, then drains:
// the listener closes at once, idle connections with it, and requests
// in flight get shutdownGrace to finish. The Serve goroutine reports on
// errc, which every path out reads.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(drain)
	<-errc // Serve returned http.ErrServerClosed the moment Shutdown began
	return err
}

func main() {
	var (
		file      = flag.String("file", "", "XML file or .wpxs snapshot to serve")
		snapshot  = flag.String("snapshot", "", "boot from a zero-copy mmap snapshot (.wpxs); falls back to -file on error")
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache", defaultCacheSize, "entries in each LRU cache: engines and query plans")
		accessLog = flag.Bool("access-log", false, "log one structured JSON line per request to stderr")
		shards    = flag.Int("shards", 1, "evaluate each query in N shards: contiguous ranges of its roots, run in parallel")
	)
	flag.Parse()
	if *file == "" && *snapshot == "" {
		flag.Usage()
		os.Exit(2)
	}
	var db *whirlpool.Database
	var err error
	served := *file
	start := time.Now()
	if *snapshot != "" {
		db, err = whirlpool.OpenSnapshot(*snapshot)
		if err != nil {
			if *file == "" {
				log.Fatal(err)
			}
			log.Printf("whirlpoold: snapshot %s unusable (%v), rebuilding from %s", *snapshot, err, *file)
		} else {
			served = *snapshot
		}
	}
	if db == nil {
		start = time.Now()
		if strings.HasPrefix(filepath.Ext(*file), ".wpx") {
			// .wpxs, and a retired v1 .wpx so it gets OpenSnapshot's
			// regenerate-it error instead of an XML syntax error.
			db, err = whirlpool.OpenSnapshot(*file)
		} else {
			db, err = whirlpool.LoadFile(*file)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	opts := serverOptions{CacheSize: *cacheSize, Shards: *shards, Boot: time.Since(start)}
	if *accessLog {
		opts.AccessLog = log.New(os.Stderr, "", 0)
	}
	srv, err := newServer(db, opts)
	if err != nil {
		log.Fatal(err)
	}
	mode := ""
	if db.SnapshotBacked() {
		mode = ", mmap snapshot"
	}
	if *shards > 1 {
		log.Printf("whirlpoold: serving %s (%d nodes, %d shards%s) on %s", served, db.Size(), *shards, mode, *addr)
	} else {
		log.Printf("whirlpoold: serving %s (%d nodes%s) on %s", served, db.Size(), mode, *addr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// A build boot's last collection ran while the build's scratch was
	// live, so the heap target it set would let the serving heap grow to
	// twice that before the next one; one collection now sets it from
	// what serving keeps. A snapshot open leaves little scratch, and the
	// collection would only compete with its first requests.
	if !db.SnapshotBacked() {
		go runtime.GC()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, newHTTPServer(srv), ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("whirlpoold: drained, exiting")
}
