package wire

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestServeInitFailureUnregistersListener: when engineInit fails (here:
// DataDir is a regular file, so the directory cannot be created), Serve
// must clear the listener registration on its way out — a later Close
// must not close a listener the server never actually served,
// mirroring Serve's documented net/http contract.
func TestServeInitFailureUnregistersListener(t *testing.T) {
	badDir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(badDir, []byte("file in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &Server{F: f61, DataDir: badDir}
	if err := srv.Serve(ln); err == nil || errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve with an unusable data dir = %v, want an init error", err)
	}
	// The failed Serve must not have kept the caller's listener: Close
	// must leave it accepting.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after failed Serve: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("listener unusable after failed Serve + Close: %v", err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("Accept after failed Serve + Close: %v", err)
	}
}

// TestCloseDrainsHandlersBeforeFinalPersist: an orderly shutdown racing
// a client mid-upload must not lose acknowledged batches — Close drains
// the handler goroutines (so no IngestColumns is in flight) before the
// engine's final persist, and a recovery over the same data dir holds
// at least every update the client saw acknowledged.
func TestCloseDrainsHandlersBeforeFinalPersist(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{F: f61, DataDir: dir}
	go func() { _ = srv.Serve(ln) }()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("load", recU); err != nil {
		t.Fatal(err)
	}
	// Keep ingesting small acknowledged batches until the shutdown cuts
	// the connection; remember the last acknowledged count.
	acked := make(chan uint64, 1)
	go func() {
		rng := field.NewSplitMix64(600)
		var last uint64
		for {
			n, err := cl.Ingest(stream.UnitIncrements(recU, 64, rng))
			if err != nil {
				break
			}
			last = n
		}
		acked <- last
	}()
	// Let the uploader land some batches, then shut down mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ds, ok := srv.Engine.Get("load"); ok && ds.Updates() >= 128 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("uploader made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	last := <-acked
	if last == 0 {
		t.Fatal("no batch was acknowledged before shutdown")
	}

	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	ds, ok := e2.Get("load")
	if !ok {
		t.Fatal("dataset missing after recovery")
	}
	if got := ds.Updates(); got < last {
		t.Fatalf("recovered %d updates but %d were acknowledged — the final persist ran before the handler drained", got, last)
	}
}
