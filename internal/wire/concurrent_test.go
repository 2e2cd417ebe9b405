package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestServeReturnsErrServerClosed: an intentional Close must surface as
// ErrServerClosed from Serve, not as the listener's "use of closed network
// connection" error.
func TestServeReturnsErrServerClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{F: f61}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	// Let Serve reach Accept, then shut down.
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Close before Serve: a later Serve must refuse immediately and leave
	// the caller's listener untouched (net/http semantics).
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if err := srv.Serve(ln2); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve on closed server = %v, want ErrServerClosed", err)
	}
	// A refused Serve must not have registered ln2 either: a second Close
	// (Close is idempotent) must leave it accepting.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if conn, err := net.Dial("tcp", ln2.Addr().String()); err != nil {
		t.Fatalf("refused Serve let Close reach the caller's listener: %v", err)
	} else {
		conn.Close()
	}
}

// TestConcurrentClientsParallelProver hammers one server with several
// clients uploading and querying simultaneously while the server proves
// with a full worker pool — run under -race this locks in that the
// parallel prover engine shares no mutable state across goroutines.
func TestConcurrentClientsParallelProver(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{F: f61, Workers: -1}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve exit = %v, want ErrServerClosed", err)
		}
	}()

	const (
		clients = 4
		u       = 1 << 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := uint64(1000 + 10*c)
			ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(seed))

			client, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", c, err)
				return
			}
			defer client.Close()
			if _, err := client.OpenDataset(fmt.Sprintf("client-%d", c), u); err != nil {
				errs <- fmt.Errorf("client %d: open: %w", c, err)
				return
			}

			f2proto, err := core.NewSelfJoinSize(f61, u)
			if err != nil {
				errs <- err
				return
			}
			f2v := f2proto.NewVerifier(field.NewSplitMix64(seed + 1))
			rsproto, err := core.NewRangeSum(f61, u)
			if err != nil {
				errs <- err
				return
			}
			rsv := rsproto.NewVerifier(field.NewSplitMix64(seed + 2))
			for _, up := range ups {
				if err := f2v.Observe(up); err != nil {
					errs <- err
					return
				}
				if err := rsv.Observe(up); err != nil {
					errs <- err
					return
				}
			}
			if _, err := client.Ingest(ups); err != nil {
				errs <- fmt.Errorf("client %d: upload: %w", c, err)
				return
			}

			// Two verified queries back to back on the same connection.
			if _, err := client.Query(QuerySelfJoinSize, QueryParams{}, f2v); err != nil {
				errs <- fmt.Errorf("client %d: F2 rejected: %w", c, err)
				return
			}
			gotF2, err := f2v.Result()
			if err != nil {
				errs <- err
				return
			}
			a, _ := stream.Apply(ups, u)
			var wantF2 field.Elem
			for _, v := range a {
				e := f61.FromInt64(v)
				wantF2 = f61.Add(wantF2, f61.Mul(e, e))
			}
			if gotF2 != wantF2 {
				errs <- fmt.Errorf("client %d: F2 = %d, want %d", c, gotF2, wantF2)
				return
			}

			qL, qR := uint64(64), uint64(u/2)
			if err := rsv.SetQuery(qL, qR); err != nil {
				errs <- err
				return
			}
			if _, err := client.Query(QueryRangeSum, QueryParams{A: qL, B: qR}, rsv); err != nil {
				errs <- fmt.Errorf("client %d: range-sum rejected: %w", c, err)
				return
			}
			gotRS, err := rsv.SignedResult()
			if err != nil {
				errs <- err
				return
			}
			var wantRS int64
			for i := qL; i <= qR; i++ {
				wantRS += a[i]
			}
			if gotRS != wantRS {
				errs <- fmt.Errorf("client %d: range-sum = %d, want %d", c, gotRS, wantRS)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
