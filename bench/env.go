package main

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/shard"
	"repro/internal/wire"
)

// scratchRoot is where anything the benchmark writes lands: inside the
// checkout, next to the build directory the driver already ignores.
const scratchRoot = ".bench_build"

// env owns what one set-up of one workload starts: in-process servers
// and routers on loopback listeners, client connections whose bytes are
// counted, and a scratch directory. close tears all of it down in
// reverse order and waits for the server handlers to drain.
type env struct {
	f        field.Field
	closers  []func()
	servers  []*wire.Server
	engines  []*engine.Engine
	bytesIn  atomic.Int64 // client-side bytes read, all connections
	bytesOut atomic.Int64 // client-side bytes written
}

func newEnv() *env { return &env{f: field.Mersenne()} }

func (e *env) onClose(fn func()) { e.closers = append(e.closers, fn) }

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// serve starts srv on a loopback port and returns its address. The
// engine is injected by the caller, so twins and residency counts can
// read it from outside the wire layer.
func (e *env) serve(srv *wire.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close; anything else surfaces as failed ops
	}()
	e.onClose(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// engineServer starts one engine behind one wire server.
func (e *env) engineServer(workers int, configure func(*wire.Server)) (*engine.Engine, string, error) {
	eng := engine.New(e.f, workers)
	eng.SetMaxDatasets(wire.DefaultMaxDatasets)
	srv := &wire.Server{F: e.f, Workers: workers, Engine: eng}
	if configure != nil {
		configure(srv)
	}
	addr, err := e.serve(srv)
	e.servers, e.engines = append(e.servers, srv), append(e.engines, eng)
	return eng, addr, err
}

// cacheCounts is the proof-cache accounting summed over the servers.
type cacheCounts struct{ hits, misses, coalesced uint64 }

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses, c.coalesced - o.coalesced}
}

func (e *env) cacheStats() cacheCounts {
	var c cacheCounts
	for _, s := range e.servers {
		st := s.Stats().ProofCache
		c.hits, c.misses, c.coalesced = c.hits+st.Hits, c.misses+st.Misses, c.coalesced+st.Coalesced
	}
	return c
}

// residentBytes is the table bytes resident across the engines.
func (e *env) residentBytes() int64 {
	var n int64
	for _, eng := range e.engines {
		n += eng.ResidentBytes()
	}
	return n
}

// route starts a router over tbl and returns its address.
func (e *env) route(tbl *shard.Table) (string, error) {
	r, err := shard.NewRouter(tbl)
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Serve(ln) // ErrRouterClosed on Close
	}()
	e.onClose(func() {
		_ = r.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// splitRouter starts slices single-worker engines and a router that
// splits the named dataset's universe across them.
func (e *env) splitRouter(dataset string, slices int) (string, error) {
	sp := &shard.SplitSpec{Slices: slices}
	tbl := &shard.Table{Splits: map[string]*shard.SplitSpec{dataset: sp}}
	for s := 0; s < slices; s++ {
		_, addr, err := e.engineServer(1, nil)
		if err != nil {
			return "", err
		}
		name := fmt.Sprintf("s%d", s)
		tbl.Shards = append(tbl.Shards, shard.ShardInfo{Name: name, Addr: addr})
		sp.Owners = append(sp.Owners, name)
	}
	return e.route(tbl)
}

// dial connects a verifier client whose traffic is counted.
func (e *env) dial(addr string) (*wire.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := wire.NewClient(&countConn{Conn: conn, in: &e.bytesIn, out: &e.bytesOut})
	cl.FieldModulus = e.f.Modulus()
	e.onClose(func() { _ = cl.Close() })
	return cl, nil
}

// attach dials addr, opens the dataset and ingests its stream.
func (e *env) attach(addr string, d *dataset) (*wire.Client, error) {
	cl, err := e.dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := cl.OpenDataset(d.name, d.u); err != nil {
		return nil, fmt.Errorf("open %s: %w", d.name, err)
	}
	if _, err := cl.Ingest(d.ups); err != nil {
		return nil, fmt.Errorf("ingest %s: %w", d.name, err)
	}
	return cl, nil
}

// scratch creates a fresh directory under scratchRoot, removed on close.
func (e *env) scratch() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratchRoot, "sip-*")
	if err != nil {
		return "", err
	}
	e.onClose(func() { _ = os.RemoveAll(dir) })
	return dir, nil
}

// countConn counts the bytes a client reads and writes; it sits under
// wire.NewClient in traced and untraced runs alike.
type countConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
