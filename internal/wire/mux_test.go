package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

// recordingVerifier wraps a verifier session and keeps a copy of every
// prover message it consumes, so a multiplexed conversation can be
// compared bit for bit against a serial baseline.
type recordingVerifier struct {
	inner core.VerifierSession
	msgs  []core.Msg
}

func (r *recordingVerifier) record(m core.Msg) {
	r.msgs = append(r.msgs, core.Msg{
		Ints:  append([]uint64(nil), m.Ints...),
		Elems: append([]field.Elem(nil), m.Elems...),
	})
}

func (r *recordingVerifier) Begin(m core.Msg) (core.Msg, bool, error) {
	r.record(m)
	return r.inner.Begin(m)
}

func (r *recordingVerifier) Step(m core.Msg) (core.Msg, bool, error) {
	r.record(m)
	return r.inner.Step(m)
}

func sameTranscript(a, b []core.Msg) error {
	if len(a) != len(b) {
		return fmt.Errorf("round counts differ: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r].Ints) != len(b[r].Ints) || len(a[r].Elems) != len(b[r].Elems) {
			return fmt.Errorf("round %d shapes differ", r)
		}
		for i := range a[r].Ints {
			if a[r].Ints[i] != b[r].Ints[i] {
				return fmt.Errorf("round %d int %d differs", r, i)
			}
		}
		for i := range a[r].Elems {
			if a[r].Elems[i] != b[r].Elems[i] {
				return fmt.Errorf("round %d elem %d differs", r, i)
			}
		}
	}
	return nil
}

// muxVerifier builds the verifier session for one query kind with its
// query pre-set, mirroring the engine test helper.
func muxVerifier(t *testing.T, u uint64, kind QueryKind, p QueryParams, seed uint64) (core.VerifierSession, func(stream.Update) error) {
	t.Helper()
	v, err := engine.NewStreamVerifier(f61, u, kind, p, field.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	return v, v.Observe
}

func muxKinds() []struct {
	kind   QueryKind
	params QueryParams
} {
	return []struct {
		kind   QueryKind
		params QueryParams
	}{
		{QuerySelfJoinSize, QueryParams{}},
		{QueryFk, QueryParams{K: 3}},
		{QueryRangeSum, QueryParams{A: 3, B: 200}},
		{QueryRangeQuery, QueryParams{A: 3, B: 200}},
		{QueryIndex, QueryParams{A: 17}},
		{QueryDictionary, QueryParams{A: 17}},
		{QueryPredecessor, QueryParams{A: 99}},
		{QuerySuccessor, QueryParams{A: 99}},
		{QueryKLargest, QueryParams{K: 4}},
		{QueryHeavyHitters, QueryParams{Phi: 0.02}},
		{QueryF0, QueryParams{}},
		{QueryFmax, QueryParams{}},
	}
}

// observeAll feeds the stream to a verifier.
func observeAll(t *testing.T, obs func(stream.Update) error, ups []stream.Update) {
	t.Helper()
	for _, up := range ups {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxQueriesTranscripts is the tentpole contract: for every query
// kind and worker count, k conversations overlapped on ONE connection
// emit transcripts bit-identical to the same k conversations run
// serially on one connection, and all are accepted.
func TestMuxQueriesTranscripts(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(1100))
	kinds := muxKinds()
	for _, workers := range []int{0, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			addr, stop := startServerOpts(t, &Server{F: f61, Workers: workers})
			defer stop()

			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.OpenDataset("mux", u); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Ingest(ups); err != nil {
				t.Fatal(err)
			}

			seed := func(k int) uint64 { return uint64(20_000 + k) }

			// Serial baseline: the k conversations one after another.
			serial := make([][]core.Msg, len(kinds))
			for k, c := range kinds {
				v, obs := muxVerifier(t, u, c.kind, c.params, seed(k))
				observeAll(t, obs, ups)
				rec := &recordingVerifier{inner: v}
				if _, err := cl.Query(c.kind, c.params, rec); err != nil {
					t.Fatalf("serial %d (kind %d): %v", k, c.kind, err)
				}
				serial[k] = rec.msgs
			}

			// Overlapped: all k in flight at once on the same connection.
			recs := make([]*recordingVerifier, len(kinds))
			handles := make([]*QueryHandle, len(kinds))
			for k, c := range kinds {
				v, obs := muxVerifier(t, u, c.kind, c.params, seed(k))
				observeAll(t, obs, ups)
				recs[k] = &recordingVerifier{inner: v}
				h, err := cl.QueryAsync(c.kind, c.params, recs[k])
				if err != nil {
					t.Fatalf("QueryAsync %d: %v", k, err)
				}
				handles[k] = h
			}
			for k, h := range handles {
				if _, err := h.Wait(); err != nil {
					t.Fatalf("overlapped %d (kind %d) rejected: %v", k, kinds[k].kind, err)
				}
			}
			for k := range kinds {
				if err := sameTranscript(serial[k], recs[k].msgs); err != nil {
					t.Errorf("kind %d workers=%d: overlapped transcript differs from serial: %v", kinds[k].kind, workers, err)
				}
			}
		})
	}
}

// TestMuxIngestionFlowsBetweenConversations: updates sent while
// conversations are in flight are folded (and acked) without waiting
// for the conversations, and the conversations still prove against the
// state they were issued at — frame order on the wire fixes each
// snapshot.
func TestMuxIngestionFlowsBetweenConversations(t *testing.T) {
	const u = 1 << 10
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	ups1 := stream.UniformDeltas(u, 50, field.NewSplitMix64(1200))
	ups2 := stream.UnitIncrements(u, 300, field.NewSplitMix64(1201))

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("flow", u); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ups1); err != nil {
		t.Fatal(err)
	}

	// Launch conversations over the ups1 state…
	const k = 4
	handles := make([]*QueryHandle, k)
	for i := 0; i < k; i++ {
		v, obs := muxVerifier(t, u, QuerySelfJoinSize, QueryParams{}, uint64(1300+i))
		observeAll(t, obs, ups1)
		h, err := cl.QueryAsync(QuerySelfJoinSize, QueryParams{}, v)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	// …then ingest more while they are (potentially) mid-flight. The
	// ingest acks must come back without waiting for any conversation.
	count, err := cl.Ingest(ups2)
	if err != nil {
		t.Fatal(err)
	}
	if int(count) != len(ups1)+len(ups2) {
		t.Fatalf("count after interleaved ingest = %d, want %d", count, len(ups1)+len(ups2))
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("conversation %d (issued before the ingest) rejected: %v", i, err)
		}
	}
	// A conversation issued after the ingest sees the union.
	v, obs := muxVerifier(t, u, QuerySelfJoinSize, QueryParams{}, 1400)
	observeAll(t, obs, ups1)
	observeAll(t, obs, ups2)
	if _, err := cl.Query(QuerySelfJoinSize, QueryParams{}, v); err != nil {
		t.Fatalf("post-ingest conversation rejected: %v", err)
	}
}

// TestMuxConcurrentDishonest: overlapped conversations on one
// connection are each accepted from an honest server, and a dishonest
// server is rejected on every one of them.
func TestMuxConcurrentDishonest(t *testing.T) {
	const u = 256
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(1500))
	for _, tc := range []struct {
		name    string
		corrupt func([]int64) []int64
		wantErr bool
	}{
		{"honest", nil, false},
		{"dishonest", dropOneItem, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := startServerOpts(t, &Server{F: f61, Corrupt: tc.corrupt})
			defer stop()
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			openFresh(t, cl, u, ups)
			const k = 4
			handles := make([]*QueryHandle, k)
			for i := 0; i < k; i++ {
				v, obs := muxVerifier(t, u, QuerySelfJoinSize, QueryParams{}, uint64(1600+i))
				observeAll(t, obs, ups)
				if handles[i], err = cl.QueryAsync(QuerySelfJoinSize, QueryParams{}, v); err != nil {
					t.Fatal(err)
				}
			}
			for i, h := range handles {
				_, err := h.Wait()
				if tc.wantErr && !errors.Is(err, core.ErrRejected) {
					t.Errorf("conversation %d against a dishonest cloud: %v, want ErrRejected", i, err)
				}
				if !tc.wantErr && err != nil {
					t.Errorf("conversation %d: %v", i, err)
				}
			}
		})
	}
}

// TestMuxChannelBudget: channel opens past MaxConcurrentQueries get the
// budget-frame treatment — the refused channel fails typed, the
// connection and the in-flight conversation survive, and finishing a
// conversation frees its slot.
func TestMuxChannelBudget(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, MaxConcurrentQueries: 1})
	defer stop()

	rc := dialRaw(t, addr)
	rc.send(frames.Open, frames.EncodeOpen("capped", 64))
	rc.send(frames.Updates, frames.EncodeUpdates([]stream.Update{{Index: 1, Delta: 1}}))
	// Drain the open and updates acks.
	for acks := 0; acks < 2; {
		typ, _, err := frames.ReadFrame(rc.conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ != frames.OK {
			t.Fatalf("expected ack, got frame 0x%02x", typ)
		}
		acks++
	}
	// Channel 1 opens and parks mid-conversation (we never answer).
	rc.send(frames.QueryCh, frames.EncodeChannel(1, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})))
	typ, payload, err := frames.ReadFrame(rc.conn)
	if err != nil {
		t.Fatal(err)
	}
	if id, _, _ := frames.DecodeChannel(payload); typ != frames.ProverCh || id != 1 {
		t.Fatalf("expected the channel-1 opening, got frame 0x%02x ch=%d", typ, id)
	}
	// Channel 2 exceeds the cap: a budget frame for channel 2 only.
	rc.send(frames.QueryCh, frames.EncodeChannel(2, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})))
	typ, payload, err = frames.ReadFrame(rc.conn)
	if err != nil {
		t.Fatal(err)
	}
	if id, _, _ := frames.DecodeChannel(payload); typ != frames.BudgetCh || id != 2 {
		t.Fatalf("expected a channel-2 budget refusal, got frame 0x%02x ch=%d", typ, id)
	}
	// Finish channel 1: the read loop releases the slot the moment the
	// finish frame is processed, so the very next open on the connection
	// must be admitted — a serial client at the cap is never spuriously
	// refused.
	rc.send(frames.FinishCh, frames.EncodeChannel(1, nil))
	rc.send(frames.QueryCh, frames.EncodeChannel(3, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})))
	typ, payload, err = frames.ReadFrame(rc.conn)
	if err != nil {
		t.Fatal(err)
	}
	if id, _, _ := frames.DecodeChannel(payload); typ != frames.ProverCh || id != 3 {
		t.Fatalf("open straight after finish got frame 0x%02x ch=%d, want the channel-3 opening (slot released late?)", typ, id)
	}
	rc.send(frames.FinishCh, frames.EncodeChannel(3, nil))
}

// TestMuxCrossDatasetResidency crosses the mux channels with the memory
// governor: k concurrent conversations on ONE connection over four
// datasets thrashing a two-dataset Σ budget, so snapshots force
// evictions and rehydrations while other channels are mid-conversation.
// Every transcript must be bit-identical to an uncontended serial
// baseline. Meaningful mostly under -race (the wire-layer extension of
// the engine's TestCrossDatasetContention).
func TestMuxCrossDatasetResidency(t *testing.T) {
	const (
		u         = 500
		nDatasets = 4
	)
	oneDataset := int64(512 * 16) // u padded to 512, 16 bytes/entry
	kinds := muxKinds()
	for _, workers := range []int{0, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := &Server{F: f61, Workers: workers, MemBudget: 2 * oneDataset, DataDir: t.TempDir()}
			addr, stop := startServerOpts(t, srv)
			defer stop()

			// Ingest a distinct stream into each dataset.
			streams := make([][]stream.Update, nDatasets)
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for d := 0; d < nDatasets; d++ {
				streams[d] = stream.UniformDeltas(u, 30, field.NewSplitMix64(uint64(1700+d)))
				if _, err := cl.OpenDataset(fmt.Sprintf("d%d", d), u); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Ingest(streams[d]); err != nil {
					t.Fatal(err)
				}
			}

			// Baselines: standalone datasets, never evicted, same seeds.
			baseline := make([][]core.Msg, len(kinds))
			for k, c := range kinds {
				d := k % nDatasets
				ds, err := engine.NewDataset(f61, u, workers)
				if err != nil {
					t.Fatal(err)
				}
				if err := ds.Ingest(streams[d]); err != nil {
					t.Fatal(err)
				}
				p, err := ds.Snapshot().NewProver(c.kind, c.params)
				if err != nil {
					t.Fatal(err)
				}
				v, obs := muxVerifier(t, u, c.kind, c.params, uint64(21_000+k))
				observeAll(t, obs, streams[d])
				rec := &recordingVerifier{inner: v}
				if _, err := core.Run(p, rec); err != nil {
					t.Fatalf("baseline %d rejected: %v", k, err)
				}
				baseline[k] = rec.msgs
			}

			// One connection, all kinds in flight, re-attaching round-robin
			// across the four datasets between channel opens: every
			// snapshot can force an eviction of a dataset another live
			// conversation was built from.
			recs := make([]*recordingVerifier, len(kinds))
			handles := make([]*QueryHandle, len(kinds))
			for k, c := range kinds {
				d := k % nDatasets
				if _, err := cl.OpenDataset(fmt.Sprintf("d%d", d), u); err != nil {
					t.Fatal(err)
				}
				v, obs := muxVerifier(t, u, c.kind, c.params, uint64(21_000+k))
				observeAll(t, obs, streams[d])
				recs[k] = &recordingVerifier{inner: v}
				h, err := cl.QueryAsync(c.kind, c.params, recs[k])
				if err != nil {
					t.Fatal(err)
				}
				handles[k] = h
			}
			for k, h := range handles {
				if _, err := h.Wait(); err != nil {
					t.Fatalf("contended conversation %d (kind %d) rejected: %v", k, kinds[k].kind, err)
				}
			}
			for k := range kinds {
				if err := sameTranscript(baseline[k], recs[k].msgs); err != nil {
					t.Errorf("kind %d workers=%d: contended mux transcript differs: %v", kinds[k].kind, workers, err)
				}
			}
		})
	}
}

// TestCloseClosesAllListeners: a server serving several listeners must
// stop all of them on Close, not just the most recently served one.
func TestCloseClosesAllListeners(t *testing.T) {
	srv := &Server{F: f61}
	var lns [2]net.Listener
	var addrs [2]string
	done := make(chan error, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		go func(ln net.Listener) { done <- srv.Serve(ln) }(ln)
	}
	// Both listeners answer before the Close.
	for _, addr := range addrs {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.OpenDataset("probe", 64); err != nil {
			t.Fatalf("open via %s: %v", addr, err)
		}
		cl.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrServerClosed) {
				t.Fatalf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Serve loop survived Close — its listener was orphaned")
		}
	}
	// Neither address accepts new connections.
	for _, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			t.Fatalf("listener %s still accepting after Close", addr)
		}
	}
}

// TestClientTimeout: a stalled or half-open server surfaces as a typed
// ErrTimeout on every waiting entry point instead of hanging forever.
func TestClientTimeout(t *testing.T) {
	// A "server" that accepts, acks opens, then goes silent forever — it
	// never answers queries.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					typ, _, err := frames.ReadFrame(conn)
					if err != nil {
						return
					}
					switch typ {
					case frames.Open:
						if err := frames.WriteFrame(conn, frames.OK, frames.EncodeCount(0)); err != nil {
							return
						}
					default:
						// swallow everything else, never respond
					}
				}
			}(conn)
		}
	}()

	t.Run("silent before open ack", func(t *testing.T) {
		// A raw listener that accepts and never speaks at all.
		silent, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
		go func() {
			for {
				conn, err := silent.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				_, _ = conn.Read(make([]byte, 1<<10)) // read and ignore
				select {}                             // hold the connection open, say nothing
			}
		}()
		cl, err := Dial(silent.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Timeout = 150 * time.Millisecond
		start := time.Now()
		if _, err := cl.OpenDataset("d", 64); !errors.Is(err, ErrTimeout) {
			t.Fatalf("OpenDataset against a silent server = %v, want wire.ErrTimeout", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("OpenDataset hung for %v despite the timeout", waited)
		}
	})

	t.Run("silent mid-conversation", func(t *testing.T) {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Timeout = 150 * time.Millisecond
		if _, err := cl.OpenDataset("d", 64); err != nil {
			t.Fatal(err)
		}
		v, _ := muxVerifier(t, 64, QuerySelfJoinSize, QueryParams{}, 1800)
		start := time.Now()
		if _, err := cl.Query(QuerySelfJoinSize, QueryParams{}, v); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Query against a silent server = %v, want wire.ErrTimeout", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("Query hung for %v despite the timeout", waited)
		}
	})
}

// TestIngestSurfacesIngestError: a server-side ingest failure surfaces
// from Ingest as the server's typed refusal, not a bare transport
// error. The trigger is IngestColumns' bounds check: index 510 lands in
// the padding of a 500-entry universe (padded to 512) and must be
// refused; the refusal is connection-fatal.
func TestIngestSurfacesIngestError(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	openFresh(t, cl, 500, nil)
	_, err = cl.Ingest([]stream.Update{{Index: 510, Delta: 1}})
	if err == nil {
		t.Fatal("Ingest of an out-of-universe index reported success")
	}
	if !strings.Contains(err.Error(), "outside universe") {
		t.Fatalf("Ingest error = %q, want the server's typed bounds-check failure", err)
	}
	// A client unaware of the failure keeps streaming; it sees the same
	// typed cause, not a broken pipe.
	_, err = cl.Ingest(stream.UnitIncrements(500, 100, field.NewSplitMix64(1900)))
	if err == nil || !strings.Contains(err.Error(), "outside universe") {
		t.Fatalf("Ingest after the refusal = %v, want the sticky server error", err)
	}
}
