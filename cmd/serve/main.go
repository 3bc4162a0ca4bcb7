// Command serve runs the simulation-as-a-service daemon: an HTTP/JSON front
// end over the scenario registry, where requests for one geometry share one
// wall plan through the run engine, with bounded concurrent execution,
// per-request timeouts with real cancellation, and graceful drain.
//
//	serve -addr localhost:8080 -out out/serve
//	curl -s localhost:8080/v1/runs -d '{"scenario":"shear","steps":2,"params":{"max_cells":2}}'
//	curl -sN localhost:8080/v1/runs -d '{"scenario":"torus","steps":3,"stream":true}'
//	curl -s -X POST localhost:8080/v1/drain
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish (up to
// -drain-grace, after which they are cancelled at their next step
// boundary), the request log flushes, and the listener shuts down cleanly.
// A second signal kills the process: in-flight runs stop where they are and
// the request log is not flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/serve"
	"rbcflow/internal/telemetry"
)

// main delegates to run so deferred cleanup executes on every exit path —
// os.Exit in main would skip it.
func main() {
	os.Exit(run())
}

func run() int {
	f := driver.BindRun(flag.CommandLine, 3, 2)
	addr := flag.String("addr", "localhost:8080", "listen address")
	out := flag.String("out", "out/serve", `result store directory ("" = in-memory only)`)
	workers := flag.Int("workers", 2, "max concurrently stepping runs")
	timeout := flag.Float64("timeout", 0, "default per-run timeout in seconds (0 = none; requests may override)")
	drainGrace := flag.Duration("drain-grace", 60*time.Second, "how long drain waits for in-flight runs before aborting them")
	flag.Parse()

	var store serve.ResultStore
	if *out != "" {
		fs, err := serve.NewFSStore(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		store = fs
	} else {
		store = serve.NewMemStore()
	}

	reg := telemetry.NewRegistry()
	srv := serve.New(serve.Config{
		Ranks: f.Ranks, Steps: f.Steps,
		Workers:        *workers,
		RequestTimeout: *timeout,
		PlanCache:      f.PlanCache,
		Calibration:    f.Calibration,
	}, store, reg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("serve daemon on http://%s (/v1/runs, /v1/stats, /healthz, /metrics)\n", ln.Addr())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	}
	// Re-arm signals so a second ^C kills the process the OS way.
	stopSignals()

	fmt.Println("draining: refusing new runs, waiting for in-flight runs...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v (in-flight runs were cancelled)\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	st := srv.StatsSnapshot()
	fmt.Printf("drained: %d requests, %d completed\n", st.Requests, st.Completed)
	return 0
}
