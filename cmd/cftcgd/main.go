// Command cftcgd is the CFTCG campaign daemon: a long-running fuzzing
// service that accepts campaign submissions over HTTP, runs each one as a
// multi-shard ensemble of independent shards merged at the end (the same
// engine `cftcg fuzz -workers N` runs), and exposes a JSON status API plus
// Prometheus-text metrics.
//
//	cftcgd [-addr host:port] [-runners n] [-drain-timeout d] [-journal dir]
//	        [-max-queue n] [-max-import-bytes n]
//
// With -journal the daemon is crash-durable: each job is one file,
// job-<id>.json in the journal directory, replaced atomically at every state
// transition, and on restart the job files are read back — finished
// campaigns reappear in the API, campaigns that were queued or running when
// the process died are requeued and resume their shards from the per-shard
// checkpoint files the journal directory hosts. A journal directory holding
// the *.wal segments of an older cftcgd is refused at start.
//
// Endpoints (see internal/campaign.Server.Handler):
//
//	GET  /healthz                     liveness + health detail (503 degraded)
//	GET  /readyz                      readiness (503 while draining)
//	GET  /metrics                     Prometheus text exposition
//	GET  /api/campaigns               all campaigns with live snapshots
//	POST /api/campaigns               submit {"model","shards","budget",...}
//	GET  /api/campaigns/{id}          one campaign
//	POST /api/campaigns/{id}/stop     stop a running / cancel a queued one
//	GET  /api/campaigns/{id}/corpus   export coverage-carrying inputs
//	POST /api/campaigns/{id}/corpus   inject cases into a running campaign
//
// A model is the path of an .slx-like container readable by the daemon or,
// when no such file exists, a built-in benchmark name (e.g. SolarPV). On
// SIGTERM/SIGINT the daemon drains gracefully: the listener stops, queued
// campaigns are canceled, running shards stop through their Options.Stop
// channels and flush their per-shard checkpoints, then the process exits. A
// second signal kills it.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8355", "HTTP listen address (port 0 picks one)")
	runners := flag.Int("runners", 1, "campaigns run concurrently (each fans out over its shards)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for running campaigns on shutdown")
	journalDir := flag.String("journal", "", "journal directory for crash-durable campaign state (empty = in-memory only)")
	maxQueue := flag.Int("max-queue", 128, "queued submissions beyond this are shed with 503")
	maxImport := flag.Int64("max-import-bytes", 32<<20, "corpus import request body cap")
	flag.Parse()

	srv, err := campaign.NewServerWithConfig(resolveModel, campaign.ServerConfig{
		Runners:        *runners,
		MaxQueue:       *maxQueue,
		MaxImportBytes: *maxImport,
		Journal:        *journalDir,
	})
	if err != nil {
		log.Fatalf("cftcgd: %v", err)
	}
	// Slowloris/stuck-peer protection: generous ceilings that still bound
	// every connection. Write must cover a full corpus export.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cftcgd: listen: %v", err)
	}
	// The resolved address line is load-bearing: with -addr :0 it is how
	// scripts (check.sh's smoke test) learn the chosen port.
	log.Printf("cftcgd: listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("cftcgd: serve: %v", err)
	case sig := <-sigc:
		log.Printf("cftcgd: %s — draining (again to kill)", sig)
	}
	go func() {
		<-sigc
		log.Fatal("cftcgd: killed")
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("cftcgd: http shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Fatalf("cftcgd: %v", err)
	}
	log.Print("cftcgd: drained")
}

// resolveModel turns a submission's model name into a compiled program
// through core.Resolve: a server-side model file first, then a built-in
// benchmark name, as every cftcg command resolves it.
func resolveModel(name string) (*codegen.Compiled, error) {
	sys, err := core.Resolve(name)
	if err != nil {
		return nil, err
	}
	return sys.Compiled, nil
}
