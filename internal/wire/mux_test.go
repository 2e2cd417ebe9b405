package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

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
// Every transcript must be bit-identical to the replay reference
// (conformance.Reference). Meaningful mostly under -race (the wire-layer extension of
// the engine's TestConcurrentEvictRehydrate).
func TestMuxCrossDatasetResidency(t *testing.T) {
	const (
		u         = 500
		nDatasets = 4
	)
	oneDataset, err := engine.TableCost(u) // u padded to 512
	if err != nil {
		t.Fatal(err)
	}
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

			// One connection, all cases in flight, re-attaching round-robin
			// across the four datasets between channel opens: every
			// snapshot can force an eviction of a dataset another live
			// conversation was built from.
			recs := make([]*conformance.Recorder, len(conformance.Cases))
			handles := make([]*QueryHandle, len(conformance.Cases))
			for k, c := range conformance.Cases {
				d := k % nDatasets
				if _, err := cl.OpenDataset(fmt.Sprintf("d%d", d), u); err != nil {
					t.Fatal(err)
				}
				recs[k] = &conformance.Recorder{Inner: conformance.Verifier(t, u, c, field.NewSplitMix64(uint64(21_000+k)), streams[d])}
				h, err := cl.QueryAsync(c.Kind, c.Params, recs[k])
				if err != nil {
					t.Fatal(err)
				}
				handles[k] = h
			}
			for k, h := range handles {
				if _, err := h.Wait(); err != nil {
					t.Fatalf("contended conversation %v rejected: %v", conformance.Cases[k], err)
				}
			}
			for k, c := range conformance.Cases {
				want := conformance.Reference(t, u, c, uint64(21_000+k), streams[k%nDatasets])
				if err := conformance.Same(want, recs[k].Msgs); err != nil {
					t.Errorf("%v workers=%d: contended mux transcript differs from the reference: %v", c, workers, err)
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
		v := conformance.Verifier(t, 64, conformance.Cases[0], field.NewSplitMix64(1800), nil)
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

// TestIngestFrameCut: one frame of updates is one engine batch, and a
// batch past the per-frame cap is cut into frames, each its own batch.
// An honest 10 000-update Ingest moves the dataset's version by exactly
// one, and one whose last index is outside the universe applies
// nothing. At a cap of 3, seven updates are three frames, three versions
// and a count of seven; a refused index in the second frame leaves the
// first frame applied and sends no third.
func TestIngestFrameCut(t *testing.T) {
	for _, tc := range []struct {
		u                uint64
		n, perFrame, bad int
		frames, kept     int // the honest batch's frames; the updates the refused one applies
	}{
		{1 << 12, 10000, maxFrameUpdates, 10000 - 1, 1, 0},
		{1 << 10, 7, 3, 4, 3, 3},
	} {
		eng := engine.New(f61, 0)
		addr, stop := startServerOpts(t, &Server{F: f61, Engine: eng})
		defer stop()
		dial := func() *Client {
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}
		honest := dial()
		name := openFresh(t, honest, tc.u, nil)
		ds, ok := eng.Get(name)
		if !ok {
			t.Fatal("the opened dataset is not registered")
		}
		v0 := ds.Version()
		if count, err := honest.ingest(frames.Updates, stream.UnitIncrements(tc.u, tc.n, field.NewSplitMix64(1903)), tc.perFrame); err != nil || count != uint64(tc.n) {
			t.Fatalf("%+v: honest ingest: count %d, %v", tc, count, err)
		}
		if got := ds.Version(); got != v0+uint64(tc.frames) {
			t.Fatalf("%+v: the honest batch moved the version %d → %d", tc, v0, got)
		}
		bad := dial()
		if _, err := bad.OpenDataset(name, tc.u); err != nil {
			t.Fatal(err)
		}
		ups := stream.UnitIncrements(tc.u, tc.n, field.NewSplitMix64(1904))
		ups[tc.bad].Index = tc.u
		if _, err := bad.ingest(frames.Updates, ups, tc.perFrame); err == nil || !strings.Contains(err.Error(), "outside universe") {
			t.Fatalf("%+v: a refused index = %v, want the bounds refusal", tc, err)
		}
		wantV := v0 + uint64(tc.frames+tc.kept/tc.perFrame)
		if ds.Updates() != uint64(tc.n+tc.kept) || ds.Version() != wantV {
			t.Fatalf("%+v: the refused batch left %d updates at version %d, want %d at %d", tc, ds.Updates(), ds.Version(), tc.n+tc.kept, wantV)
		}
	}
}
