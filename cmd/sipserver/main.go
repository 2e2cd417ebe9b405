// Command sipserver runs the untrusted "cloud" prover as a TCP service:
// a dataset engine that ingests uploaded streams once into maintained
// prover state and answers any number of verified queries over it (see
// cmd/sipclient for the data-owner side).
//
//	sipserver -listen :7408
//	sipserver -listen :7408 -idle-timeout 2m   # drop stalled clients
//	sipserver -listen :7408 -data-dir /var/lib/sip \
//	          -mem-budget 1073741824 -checkpoint-interval 30s
//	sipserver -listen :7408 -cheat-drop 1      # dishonest cloud: removes an
//	                                           # item from its counts before
//	                                           # proving
//
// Clients open named datasets shared across connections (sipclient
// -dataset; without the flag sipclient draws a random, unguessable name):
// many owners can ingest into and query one dataset concurrently, and
// the Nth query costs no stream replay. That includes CIRCUIT queries
// (sipclient -circuit): GKR provers over named circuit families build
// straight from the maintained counts, parallelized by -workers.
//
// With -data-dir set, named datasets are durable: dirty datasets
// checkpoint in the background every -checkpoint-interval (crash loss is
// bounded by that interval), a restart recovers every checkpointed
// dataset with no re-ingestion, and -mem-budget caps resident table
// memory across all datasets — the least-recently-used ones spill to
// disk and rehydrate transparently when queried. Checkpoint I/O runs
// outside the engine lock (per-dataset residency latch), so concurrent
// evictions and rehydrations of different datasets overlap.
//
// The -cheat-drop flag exists to demonstrate, end to end over a real
// socket, that a cheating cloud is caught: every query against a
// doctored store — interactive or a posted proof — is rejected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, serves until the listener fails or the server is
// closed, and logs to out. A bad flag is an error, not an exit.
func run(args []string, out io.Writer) error {
	logger := log.New(out, "", log.LstdFlags)
	fl := flag.NewFlagSet("sipserver", flag.ContinueOnError)
	fl.SetOutput(out)
	listen := fl.String("listen", ":7408", "address to listen on")
	cheatDrop := fl.Int("cheat-drop", 0, "misbehave: remove this many items from the maintained counts before proving")
	workers := fl.Int("workers", runtime.NumCPU(), "prover worker-pool size (1 = serial)")
	idle := fl.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle for this long (0 = never)")
	maxLogu := fl.Int("max-logu", 26, "largest log2 universe a client may open")
	maxDatasets := fl.Int("max-datasets", wire.DefaultMaxDatasets, "cap on named datasets")
	maxQueries := fl.Int("max-queries", wire.DefaultMaxConcurrentQueries, "multiplexed query conversations in flight per connection (-1 = no cap); excess channel opens are refused with a budget frame")
	proofBudget := fl.Int64("proof-cache-budget", wire.DefaultProofCacheBudget, "bytes of posted Fiat–Shamir proofs kept for PROOF requests (one proof per dataset-version and query, served to every verifier; negative = disabled)")
	dataDir := fl.String("data-dir", "", "checkpoint directory: enables eviction, durability, and restart recovery")
	memBudget := fl.Int64("mem-budget", 0, "aggregate resident dataset memory in bytes, 9 per padded universe entry of each dataset (8 of counts, 1 of live-pair lists); LRU datasets evict to -data-dir (0 = unlimited)")
	ckptEvery := fl.Duration("checkpoint-interval", 30*time.Second, "background checkpoint interval for dirty datasets (needs -data-dir; 0 = only on eviction/shutdown)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *maxLogu < 1 || *maxLogu > 61 {
		return fmt.Errorf("-max-logu %d outside the supported range [1,61]", *maxLogu)
	}
	if *memBudget > 0 && *dataDir == "" {
		logger.Printf("warning: -mem-budget without -data-dir is a hard admission cap (nothing can be evicted)")
	}

	f := field.Mersenne()
	eng := engine.New(f, *workers)
	eng.SetMaxDatasets(*maxDatasets)
	srv := &wire.Server{
		F:                    f,
		Workers:              *workers,
		Engine:               eng,
		IdleTimeout:          *idle,
		MaxUniverse:          uint64(1) << *maxLogu,
		MaxConcurrentQueries: *maxQueries,
		MemBudget:            *memBudget,
		DataDir:              *dataDir,
		ProofCacheBudget:     *proofBudget,
	}
	if *dataDir != "" {
		srv.CheckpointEvery = *ckptEvery
		// Recover eagerly so the count is visible in the log; Serve's own
		// recovery scan is idempotent and will find nothing new. The
		// budget must be in force first — Recover loads datasets resident
		// only until it fills.
		if *memBudget > 0 {
			eng.SetBudget(*memBudget)
		}
		if err := eng.SetDataDir(*dataDir); err != nil {
			return fmt.Errorf("data dir: %v", err)
		}
		n, err := eng.Recover()
		switch {
		case errors.Is(err, engine.ErrPartialRecovery):
			// A damaged file must not take the healthy datasets down.
			logger.Printf("warning: %v", err)
		case err != nil:
			return fmt.Errorf("recovering datasets: %v", err)
		}
		if n > 0 {
			logger.Printf("recovered %d dataset(s) from %s: %v", n, *dataDir, eng.Names())
		}
	}
	if *cheatDrop > 0 {
		n := int64(*cheatDrop)
		srv.Corrupt = func(counts []int64) []int64 {
			// Remove n items: walk the counts from the top of the universe,
			// stepping each entry toward zero — the counts a cloud that
			// "lost" n updates would hold.
			left := n
			for i := len(counts) - 1; i >= 0 && left > 0; i-- {
				for counts[i] != 0 && left > 0 {
					if counts[i] > 0 {
						counts[i]--
					} else {
						counts[i]++
					}
					left--
				}
			}
			return counts
		}
		logger.Printf("running DISHONESTLY: removing %d items from the maintained counts before proving", n)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %v", err)
	}
	if *dataDir != "" {
		logger.Printf("durable datasets in %s (budget %d bytes, checkpoint every %v)", *dataDir, *memBudget, *ckptEvery)
	}
	logger.Printf("sipserver (p = 2^61-1) listening on %s; datasets persist across connections", ln.Addr())
	switch {
	case *proofBudget < 0:
		logger.Printf("proof cache disabled: every PROOF request regenerates (concurrent requests still coalesce)")
	case *proofBudget == 0:
		logger.Printf("proof cache: %d bytes for posted proofs (one per dataset-version and query)", int64(wire.DefaultProofCacheBudget))
	default:
		logger.Printf("proof cache: %d bytes for posted proofs (one per dataset-version and query)", *proofBudget)
	}
	err = srv.Serve(ln)
	if cerr := srv.Close(); cerr != nil {
		logger.Printf("shutdown: %v", cerr)
	}
	pc := srv.Stats().ProofCache
	logger.Printf("proof cache: %d hits (%d coalesced), %d misses, %d evictions, %d proofs / %d bytes resident",
		pc.Hits, pc.Coalesced, pc.Misses, pc.Evictions, pc.Entries, pc.Bytes)
	// The engine is ours, not the server's: stop its checkpointer and
	// flush dirty datasets so shutdown is loss-free.
	if cerr := eng.Close(); cerr != nil {
		logger.Printf("engine shutdown: %v", cerr)
	}
	if err != nil && !errors.Is(err, wire.ErrServerClosed) {
		return fmt.Errorf("serve: %v", err)
	}
	return nil
}
