// Command siprouter fronts N sipserver shards with one client-facing
// address: named datasets are placed on shards by consistent hashing
// (overridable per dataset in the routing table), and the v2 mux wire
// protocol is proxied transparently — sipclient and sip.Client work
// against a router exactly as against a single sipserver.
//
//	siprouter -listen :7400 -table shards.json
//	siprouter -table shards.json -rebalance mydata=shard2
//	siprouter -table shards.json -rebalance-slice huge:1=shard3
//	siprouter -table shards.json -evacuate shard1=shard2
//
// The routing table is JSON:
//
//	{
//	  "Shards": [
//	    {"Name": "shard1", "Addr": "127.0.0.1:7408", "DataDir": "/var/lib/sip/shard1"},
//	    {"Name": "shard2", "Addr": "127.0.0.1:7409", "DataDir": "/var/lib/sip/shard2"}
//	  ],
//	  "Routes": {"pinned-dataset": "shard2"},
//	  "Splits": {"huge": {"Slices": 2, "Owners": ["shard1", "shard2"]}}
//	}
//
// A dataset under "Splits" is split-universe: each owner holds one
// power-of-two slice of the padded index space and the router folds the
// owners' partial sum-check messages into the single transcript a
// client sees — transcripts and cached-proof bytes are bit-identical to
// one engine holding the whole dataset. Clients open such a dataset by
// name, exactly as a routed one; only mux-channel queries are served
// (the seam covers self-join size, k-th moments, and range sums).
//
// -rebalance moves one dataset by checkpoint handoff: the source shard
// persists and releases it (engine.Release), the checkpoint file moves
// between data dirs, the target adopts it (engine.Adopt), and the route
// is pinned in the table file. Transcripts and cached-proof bytes are
// bit-identical across the move. The data dirs must be reachable from
// where siprouter runs (same host or a shared filesystem).
//
// -rebalance-slice moves one slice of a split dataset the same way:
// the slice's owner releases it, the checkpoint file moves, the target
// adopts, and the owner list in the table is updated. Ingest through a
// live router retries transparently across the move.
//
// -evacuate is the shard-loss path: with a shard's process dead but its
// data dir intact, every checkpoint it held is moved to the target,
// adopted, and routed. Run it only once the lost shard is actually down.
//
// A client's stats request is answered by the router itself: it fans
// out to every shard, sums the proof-cache counters, and returns the
// merged reply with a per-shard breakdown (plus its own split-proof
// cache under "router").
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7400", "address to listen on")
	tablePath := flag.String("table", "", "routing table JSON (required)")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle for this long (0 = never)")
	rebalance := flag.String("rebalance", "", "move a dataset and exit: dataset=targetShard")
	rebalanceSlice := flag.String("rebalance-slice", "", "move one slice of a split dataset and exit: dataset:slice=targetShard")
	evacuate := flag.String("evacuate", "", "adopt a dead shard's checkpoints and exit: lostShard=targetShard")
	dialBudget := flag.Duration("dial-retry-budget", 2*time.Second, "total time to spend retrying an unreachable shard before failing typed")
	flag.Parse()
	if *tablePath == "" {
		log.Fatalf("-table is required")
	}
	tbl, err := shard.LoadTable(*tablePath)
	if err != nil {
		log.Fatalf("routing table: %v", err)
	}
	r, err := shard.NewRouter(tbl)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	r.IdleTimeout = *idle
	r.TablePath = *tablePath
	r.DialRetryBudget = *dialBudget

	switch {
	case *rebalance != "":
		ds, target, err := splitPair(*rebalance)
		if err != nil {
			log.Fatalf("-rebalance: %v", err)
		}
		if err := r.Rebalance(ds, target); err != nil {
			log.Fatalf("rebalance: %v", err)
		}
		log.Printf("dataset %q now served by shard %q (route pinned in %s)", ds, target, *tablePath)
		return
	case *rebalanceSlice != "":
		spec, target, err := splitPair(*rebalanceSlice)
		if err != nil {
			log.Fatalf("-rebalance-slice: %v", err)
		}
		colon := strings.LastIndex(spec, ":")
		if colon <= 0 || colon == len(spec)-1 {
			log.Fatalf("-rebalance-slice: want dataset:slice=targetShard, got %q", *rebalanceSlice)
		}
		ds := spec[:colon]
		slice, err := strconv.Atoi(spec[colon+1:])
		if err != nil {
			log.Fatalf("-rebalance-slice: slice index %q: %v", spec[colon+1:], err)
		}
		if err := r.RebalanceSlice(ds, slice, target); err != nil {
			log.Fatalf("rebalance-slice: %v", err)
		}
		log.Printf("slice %d of %q now served by shard %q (owner list updated in %s)", slice, ds, target, *tablePath)
		return
	case *evacuate != "":
		lost, target, err := splitPair(*evacuate)
		if err != nil {
			log.Fatalf("-evacuate: %v", err)
		}
		moved, err := r.Evacuate(lost, target)
		for _, ds := range moved {
			log.Printf("dataset %q recovered from %q onto %q", ds, lost, target)
		}
		if err != nil {
			log.Fatalf("evacuate: %v", err)
		}
		log.Printf("evacuated %d dataset(s); routes pinned in %s", len(moved), *tablePath)
		return
	}

	// Probe each shard before serving: a router fronting unreachable or
	// half-recovered shards should say so at startup, not on the first
	// client's open.
	for _, s := range tbl.Shards {
		st, err := probeShard(s.Addr)
		if err != nil {
			log.Printf("warning: shard %q (%s) is unreachable: %v", s.Name, s.Addr, err)
			continue
		}
		log.Printf("shard %q (%s): %d dataset(s) recovered at startup", s.Name, s.Addr, st.DatasetsRecovered)
		for _, f := range st.RecoveryFailures {
			log.Printf("warning: shard %q failed to recover a checkpoint: %s", s.Name, f)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("siprouter listening on %s, fronting %d shard(s) from %s", ln.Addr(), len(tbl.Shards), *tablePath)
	err = r.Serve(ln)
	if cerr := r.Close(); cerr != nil {
		log.Printf("shutdown: %v", cerr)
	}
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// probeShard fetches one shard's operational stats over a short-lived
// admin connection.
func probeShard(addr string) (wire.ServerStats, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return wire.ServerStats{}, err
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	return c.ServerStats()
}

func splitPair(s string) (string, string, error) {
	i := strings.Index(s, "=")
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("want name=target, got %q", s)
	}
	return s[:i], s[i+1:], nil
}
