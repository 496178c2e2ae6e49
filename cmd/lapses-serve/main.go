// Command lapses-serve runs the sweep engine as a fault-tolerant
// service: it accepts experiment-grid jobs over HTTP/JSON, leases their
// points to workers (one in-process worker when standalone, worker
// processes in cluster mode), and persists every completed point to a
// crash-safe, content-addressed result store — so overlapping grids
// submitted across processes, users and restarts cost one simulation per
// unique point, ever. A lease is one point. A worker, in-process or not,
// holds and runs at most -workers leases at once and claims only while
// it has fewer.
//
//	lapses-serve -store /var/lib/lapses            # serve on :8347
//	lapses-serve -addr :9000 -workers 8 -queue 4
//	lapses-experiments -exp fig5 -server http://host:8347
//
// Cluster mode spreads one server's grids across machines. A
// coordinator leases each submitted grid's points; workers claim them
// over HTTP, simulate them against the shared store, heartbeat while
// running, and report each result back:
//
//	lapses-serve -mode coordinator -store /shared/lapses -lease-ttl 10s
//	lapses-serve -mode worker -peers http://coord:8347 -store /shared/lapses
//
// A worker that dies mid-lease (kill -9, partition, drain) goes silent;
// the coordinator's failure detector requeues its lease after one TTL,
// and the re-execution serves every already-persisted point straight
// from the store — no simulation runs twice.
//
// Robustness properties (see internal/serve for the mechanisms):
//
//   - Completed points are durable: atomic temp-file + rename writes,
//     per-entry checksums, and a startup recovery scan that quarantines
//     truncated or corrupt entries instead of serving them. Killing the
//     process mid-grid (even kill -9) loses only in-flight points;
//     resubmitting the job resumes from the store.
//   - A failing or panicking point fails that point at once, not the
//     server: the simulator is deterministic, so no point is retried.
//   - A leased point left unresolved (its worker went silent past the
//     TTL, or drained before starting it) is requeued, at most -retries
//     claims per point; then it fails.
//   - The job queue is bounded: beyond -queue waiting jobs, submissions
//     get 429 + Retry-After backpressure.
//   - A per-job deadline (-job-timeout, one for every job) cancels runaway
//     grids at the next point boundary.
//   - SIGINT/SIGTERM drains gracefully: in-flight points finish and
//     persist, queued jobs are marked interrupted and resumable. A
//     draining worker reports its finished points and hands unstarted
//     ones back for immediate requeue.
//   - Waiting costs no polling: a status request with ?wait_ms= and a
//     worker's claim are held server-side (30 s at most; a claim also at
//     most one -lease-ttl) and answered when the job finishes or work
//     appears. The 64 most recent finished jobs stay queryable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"lapses/internal/serve"
)

func main() {
	mode := flag.String("mode", "standalone", "role: standalone (serve jobs, lease them to an in-process worker), coordinator (serve jobs, lease them to workers), or worker (claim leases from -peers)")
	addr := flag.String("addr", ":8347", "listen address (standalone and coordinator modes)")
	storeDir := flag.String("store", "", "result-store directory (required); created if missing; cluster roles share one directory")
	workers := flag.Int("workers", 0, "leases, one point each, the worker runs at once (standalone: the in-process worker; worker mode); 0 = GOMAXPROCS")
	queue := flag.Int("queue", 16, "max jobs waiting behind the running one before submissions get 429")
	retries := flag.Int("retries", 3, "claims per point before it fails (standalone and coordinator modes; 1 = lease each point once)")
	jobTimeout := flag.Duration("job-timeout", 0, "every job's deadline from when it starts running (0 = none)")
	peers := flag.String("peers", "", "comma-separated coordinator base URLs (worker mode; required there)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "coordinator mode: how long a claimed lease survives without a heartbeat before its point is requeued; workers heartbeat every quarter of it")
	workerID := flag.String("worker-id", "", "worker mode: stable identity in coordinator logs and lease ownership (default host:pid)")
	flag.Parse()

	switch *mode {
	case "standalone", "coordinator", "worker":
	default:
		fatal(fmt.Errorf("-mode %q: must be standalone, coordinator, or worker", *mode))
	}

	// Reject flags that have no effect in the chosen mode — a worker
	// started with -lease-ttl, or a coordinator with -peers or -workers
	// (it starts no worker of its own), is a misunderstanding of the
	// topology that should fail loudly at start, not silently shape
	// nothing.
	modeFlags := map[string][]string{
		"addr":        {"standalone", "coordinator"},
		"queue":       {"standalone", "coordinator"},
		"retries":     {"standalone", "coordinator"},
		"job-timeout": {"standalone", "coordinator"},
		"workers":     {"standalone", "worker"},
		"peers":       {"worker"},
		"worker-id":   {"worker"},
		"lease-ttl":   {"coordinator"},
	}
	flag.Visit(func(f *flag.Flag) {
		if want, scoped := modeFlags[f.Name]; scoped && !slices.Contains(want, *mode) {
			fatal(fmt.Errorf("-%s does not apply in %s mode (only in: %s)", f.Name, *mode, strings.Join(want, ", ")))
		}
	})

	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required: the directory completed results persist to"))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: worker count must be at least 0 (0 = GOMAXPROCS)", *workers))
	}
	if *queue < 1 {
		fatal(fmt.Errorf("-queue %d: job queue depth must be at least 1", *queue))
	}
	if *retries < 1 {
		fatal(fmt.Errorf("-retries %d: attempt budget must be at least 1 (1 = no retry)", *retries))
	}
	if *jobTimeout < 0 {
		fatal(fmt.Errorf("-job-timeout %s: deadline must not be negative", *jobTimeout))
	}
	if *leaseTTL <= 0 {
		fatal(fmt.Errorf("-lease-ttl %s: lease TTL must be positive", *leaseTTL))
	}

	var peerList []string
	if *mode == "worker" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if len(peerList) == 0 {
			fatal(fmt.Errorf("-peers is required in worker mode: comma-separated coordinator URLs, e.g. -peers http://coord:8347"))
		}
	}

	store, err := serve.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	st := store.Stats()
	log.Printf("store %s: %d entries recovered, %d quarantined", *storeDir, st.Entries, st.Quarantined)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *mode == "worker" {
		runWorker(ctx, store, peerList, *workerID, *workers)
		return
	}

	opt := serve.ServerOptions{
		Workers:     *workers,
		QueueLimit:  *queue,
		MaxAttempts: *retries,
		JobTimeout:  *jobTimeout,
	}
	if *mode == "coordinator" {
		opt.Cluster = &serve.ClusterOptions{LeaseTTL: *leaseTTL}
	}
	srv := serve.NewServer(store, opt)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", *mode, *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("draining: in-flight points finish, queued jobs are marked resumable")
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// The service drains before the listener: srv.Shutdown answers every
	// held status request and claim as it starts, so hs.Shutdown, which
	// waits for open requests, has none left to wait out.
	if err := srv.Shutdown(dctx); err != nil {
		fatal(err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	st = store.Stats()
	log.Printf("drained cleanly: %d entries durable, %d simulated this run, %d served from store", st.Entries, st.Misses, st.Hits)
}

// runWorker runs the claim-execute-complete loop until the signal
// context cancels, then drains: in-flight points finish and persist,
// and the final completion report hands unstarted points back to the
// coordinator for immediate requeue.
func runWorker(ctx context.Context, store *serve.Store, peers []string, id string, workers int) {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := &serve.Worker{
		ID:           id,
		Coordinators: peers,
		Store:        store,
		Workers:      workers,
		Verbose:      os.Stderr,
	}
	log.Printf("worker %s claiming from %s", id, strings.Join(peers, ", "))
	err := w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	st := store.Stats()
	log.Printf("worker %s drained: %d simulated this run, %d served from store", id, st.Misses, st.Hits)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lapses-serve:", err)
	os.Exit(2)
}
