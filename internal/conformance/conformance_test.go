package conformance_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The matrix runs at u = 200, which pads to 256: padding is exercised,
// and the slowest conversations (F0, Fmax) stay near 30 ms.
const (
	u       = 200
	dataset = "conformance"
	decoy   = "decoy"
)

var f = conformance.Field

// batches is the one stream every cell ingests. The first initial
// batches are uneven on purpose: a bulk batch, a per-update drip, an
// empty batch (which must not move the version on any path), a batch
// touching only the edge slices, and a second bulk batch. After them
// comes one batch per case, which interleaved cells ingest between
// queries.
var batches = func() [][]stream.Update {
	bulk := stream.UniformDeltas(u, 20, field.NewSplitMix64(34_001))
	out := [][]stream.Update{bulk[:7], bulk[7:8], bulk[8:9], nil, bulk[9:10],
		{{Index: 0, Delta: 5}, {Index: u - 1, Delta: 2}}, bulk[10:]}
	for k := range conformance.Cases {
		out = append(out, stream.UnitIncrements(u, 8, field.NewSplitMix64(uint64(34_100+k))))
	}
	return out
}()

const (
	initial = 7 // batches ingested before the first query
	mid     = 3 // where a restart or handoff interrupts the ingest
)

// prefix is the stream of the first p batches.
func prefix(p int) []stream.Update {
	var out []stream.Update
	for _, b := range batches[:p] {
		out = append(out, b...)
	}
	return out
}

// version is a dataset's version after the first p batches: one per
// non-empty batch.
func version(p int) uint64 {
	var v uint64
	for _, b := range batches[:p] {
		if len(b) > 0 {
			v++
		}
	}
	return v
}

// families are the circuit families beside the matrix's F2, COUNT and
// MATMUL (n = 16, the whole padded table), which TestCircuitRowFamilies
// checks. Their indices follow Cases' (see caseAt), so seed and
// reference serve them too.
var families = []conformance.Case{
	{Kind: engine.QueryCircuit, Params: engine.QueryParams{Circuit: circuit.FamilyCount}},
	{Kind: engine.QueryCircuit, Params: engine.QueryParams{Circuit: circuit.FamilyMatMul, A: 16}},
}

// caseAt is case k of Cases followed by families.
func caseAt(k int) conformance.Case {
	if k < len(conformance.Cases) {
		return conformance.Cases[k]
	}
	return families[k-len(conformance.Cases)]
}

// indices lists the case indices from lo up to hi.
func indices(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// seed is the verifier seed of case k in every completeness cell, so one
// reference serves every cell that asks case k at the same state.
func seed(k int) uint64 { return uint64(35_000 + k) }

// references memoises the reference transcript and, for SELF-JOIN SIZE
// (the one posted kind), the posted-proof bytes per (case, batches
// ingested).
var references sync.Map // refKey → *refEntry

type refKey struct{ k, p int }

type refEntry struct {
	once  sync.Once
	msgs  []core.Msg
	proof []byte
}

func reference(t *testing.T, k, p int) *refEntry {
	e, _ := references.LoadOrStore(refKey{k, p}, &refEntry{})
	ref := e.(*refEntry)
	ref.once.Do(func() {
		c, ups := caseAt(k), prefix(p)
		ref.msgs = conformance.Reference(t, u, c, seed(k), ups)
		if engine.CheckPosted(c.Kind) != nil {
			return
		}
		b := fs.Binding{Modulus: f.Modulus(), Universe: u, Dataset: dataset, Version: version(p),
			Query: engine.FSQuery(c.Kind, c.Params)}
		pf, err := engine.RecordProof(f, b, func() (core.ProverSession, error) {
			return engine.NewReplayProver(f, u, c.Kind, c.Params, ups, 0)
		})
		if err != nil {
			t.Fatalf("%v: reference proof: %v", c, err)
		}
		ref.proof = pf.Encode()
	})
	if ref.msgs == nil {
		t.Fatalf("%v: the reference failed in another cell", caseAt(k))
	}
	return ref
}

// seamRefusal is the engine's own text for a query outside the split
// seam, which a split dataset must answer byte for byte.
func seamRefusal(c conformance.Case) string {
	_, err := engine.SplitCombiner(f, u, c.Kind, c.Params)
	return err.Error()
}

// A cell is one deployment of the dataset and one way of asking; it runs
// every case.
type cell struct {
	topo     string // direct, server, router or split
	slices   int    // split only
	workers  int
	perturb  string // none, interleaved, evict, restart or handoff
	delivery string // serial, overlapped or posted
}

func (c cell) String() string {
	topo := c.topo
	if c.topo == "split" {
		topo = fmt.Sprintf("split%d", c.slices)
	}
	return fmt.Sprintf("%s/workers=%d/%s/%s", topo, c.workers, c.perturb, c.delivery)
}

// topologies is the applicability table: the worker counts, slice
// counts, perturbations and deliveries each topology has. A direct
// snapshot has no connection to overlap on; a lone server has no second
// home to hand off to; a split dataset's eviction is the engine's
// TestSliceEvictRecover.
var topologies = []struct {
	topo       string
	slices     []int
	workers    []int
	perturbs   []string
	deliveries []string
}{
	{"direct", []int{0}, []int{0, -1, 2}, []string{"none", "interleaved", "evict", "restart", "handoff"}, []string{"serial", "posted"}},
	{"server", []int{0}, []int{0, -1}, []string{"none", "interleaved", "evict", "restart"}, []string{"serial", "overlapped", "posted"}},
	{"router", []int{0}, []int{0, -1}, []string{"none", "interleaved", "evict", "restart", "handoff"}, []string{"serial", "overlapped", "posted"}},
	{"split", []int{1, 2, 4}, []int{0, -1}, []string{"none", "interleaved", "restart", "handoff"}, []string{"serial", "overlapped", "posted"}},
}

func cells() []cell {
	var out []cell
	for _, tp := range topologies {
		for _, s := range tp.slices {
			for _, w := range tp.workers {
				for _, p := range tp.perturbs {
					for _, d := range tp.deliveries {
						out = append(out, cell{tp.topo, s, w, p, d})
					}
				}
			}
		}
	}
	return out
}

// TestCircuitRowFamilies runs the circuit families through the engine's
// CIRCUIT row, where the family name and its argument become a
// circuit.Spec and the input is padded from a snapshot: in process and
// at a server, at every worker count, resident and evicted, serial and
// overlapped, against the reference; and with the data liar at a server
// and behind a router. CIRCUIT has no posted proof: its posted cells
// check that every family is refused with engine.ErrNotPosted.
func TestCircuitRowFamilies(t *testing.T) {
	ks := indices(len(conformance.Cases), len(conformance.Cases)+len(families))
	for _, tp := range topologies[:2] {
		for _, w := range tp.workers {
			for _, p := range []string{"none", "evict"} {
				for _, d := range tp.deliveries {
					cl := cell{topo: tp.topo, workers: w, perturb: p, delivery: d}
					t.Run(cl.String(), func(t *testing.T) {
						t.Parallel()
						runCell(t, cl, ks)
					})
				}
			}
		}
	}
	var sound atomic.Int64
	for _, hop := range []string{"server", "router"} {
		t.Run("soundness/data/"+hop, func(t *testing.T) {
			t.Parallel()
			dataLiar(t, hop, ks, &sound)
		})
	}
}

// TestConformance is the conformance matrix. Completeness: every case
// in every cell of topology × workers × perturbation × delivery is
// accepted, with the reference's transcript, or — a non-seam kind on a
// split dataset — refused in the engine's words. The posted column
// accepts SELF-JOIN SIZE with the reference's proof bytes and refuses
// every other kind with engine.ErrNotPosted. Soundness: a data liar at
// every topology is rejected with core.ErrRejected, and the same
// connection then serves an honest conversation (the message liars are
// internal/shard's TestMessageLiars). Both columns log their cell
// counts.
func TestConformance(t *testing.T) {
	var complete atomic.Int64
	perTopo := map[string]int{}
	t.Run("completeness", func(t *testing.T) {
		for _, cl := range cells() {
			perTopo[cl.topo] += len(conformance.Cases)
			t.Run(cl.String(), func(t *testing.T) {
				t.Parallel()
				runCell(t, cl, indices(0, len(conformance.Cases)))
				if !t.Failed() {
					complete.Add(int64(len(conformance.Cases)))
				}
			})
		}
	})
	var sound atomic.Int64
	t.Run("soundness", func(t *testing.T) { soundness(t, &sound) })
	t.Logf("completeness: %d cells passed of %d generated (%v)", complete.Load(),
		perTopo["direct"]+perTopo["server"]+perTopo["router"]+perTopo["split"], perTopo)
	t.Logf("soundness: %d cells rejected their liar", sound.Load())
}

// A deployment is where the cell's dataset lives, seen from the client.
type deployment interface {
	ingest(t *testing.T, b []stream.Update)
	// move is the cell's mid-ingest perturbation: restart or handoff.
	move(t *testing.T)
	// evict forces the dataset out of memory; the next query rehydrates.
	evict(t *testing.T)
	query(t *testing.T, c conformance.Case, v core.VerifierSession) error
	// start puts a query in flight and returns its wait.
	start(t *testing.T, c conformance.Case, v core.VerifierSession) func() error
	posted(t *testing.T, c conformance.Case, mk func(fs.Binding) (core.VerifierSession, error)) (*fs.Proof, error)
}

func deploy(t *testing.T, cl cell) deployment {
	switch cl.topo {
	case "direct":
		return newDirect(t, cl)
	case "server":
		return newServerDeployment(t, cl)
	case "router":
		return newRouterDeployment(t, cl)
	default:
		return newSplitDeployment(t, cl)
	}
}

// runCell ingests the initial batches into the cell's deployment, moving
// it midway when the cell restarts or hands off, then asks cases ks in
// the cell's delivery, each checked against the reference at the state
// it was asked at. Each case's verdict is a subtest named after the
// case; overlapped cases are put in flight first and judged after.
func runCell(t *testing.T, cl cell, ks []int) {
	d := deploy(t, cl)
	for i, b := range batches[:initial] {
		if i == mid && (cl.perturb == "restart" || cl.perturb == "handoff") {
			d.move(t)
		}
		d.ingest(t, b)
	}
	p := initial
	var waits []func()
	for _, k := range ks {
		c := caseAt(k)
		if cl.perturb == "evict" {
			d.evict(t)
		}
		pk, ups := p, prefix(p) // the state case k is asked at
		rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, c, field.NewSplitMix64(seed(k)), ups)}
		switch cl.delivery {
		case "serial":
			t.Run(c.String(), func(t *testing.T) { check(t, cl, k, pk, d.query(t, c, rec), rec) })
		case "overlapped":
			wait := d.start(t, c, rec)
			waits = append(waits, func() {
				t.Run(c.String(), func(t *testing.T) { check(t, cl, k, pk, wait(), rec) })
			})
		case "posted":
			t.Run(c.String(), func(t *testing.T) {
				pf, err := d.posted(t, c, func(b fs.Binding) (core.VerifierSession, error) {
					return conformance.Verifier(t, u, c, b.RNG(), ups), nil
				})
				if engine.CheckPosted(c.Kind) != nil {
					if !errors.Is(err, engine.ErrNotPosted) {
						t.Errorf("%v: posted proof: %v, want ErrNotPosted", c, err)
					}
					return
				}
				if err != nil {
					t.Errorf("%v: posted proof: %v", c, err)
				} else if !bytes.Equal(pf.Encode(), reference(t, k, pk).proof) {
					t.Errorf("%v: posted proof bytes differ from the reference (version %d, want %d)", c, pf.Version, version(pk))
				}
			})
		}
		if cl.perturb == "interleaved" {
			d.ingest(t, batches[p])
			p++
		}
	}
	for _, w := range waits {
		w()
	}
	if r, ok := d.(*remote); ok && cl.delivery == "posted" {
		r.cacheHit(t)
	}
}

// check holds one interactive conversation to the reference.
func check(t *testing.T, cl cell, k, p int, err error, rec *conformance.Recorder) {
	t.Helper()
	c := caseAt(k)
	if refused(t, cl, c, err) {
		return
	}
	if err != nil {
		t.Errorf("%v: %v", c, err)
		return
	}
	if err := conformance.Same(reference(t, k, p).msgs, rec.Msgs); err != nil {
		t.Errorf("%v: transcript differs from the reference: %v", c, err)
	}
}

// refused reports whether c is outside the seam of a split cell, after
// checking err is the engine's refusal, byte for byte.
func refused(t *testing.T, cl cell, c conformance.Case, err error) bool {
	t.Helper()
	if cl.topo != "split" || c.Seam() {
		return false
	}
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Msg != seamRefusal(c) {
		t.Errorf("%v on a split dataset: %v, want the server error %q", c, err, seamRefusal(c))
	}
	return true
}

// direct is an in-process engine snapshot.
type direct struct {
	workers int
	perturb string
	eng     *engine.Engine // closed at cleanup, whichever engine it is by then
	ds      *engine.Dataset
	other   *engine.Dataset // the evict cells' decoy
	dir     string
}

func newDirect(t *testing.T, cl cell) *direct {
	d := &direct{workers: cl.workers, perturb: cl.perturb}
	d.eng = engine.New(f, cl.workers)
	t.Cleanup(func() { _ = d.eng.Close() })
	if cl.perturb != "none" && cl.perturb != "interleaved" {
		d.dir = t.TempDir()
		if err := d.eng.SetDataDir(d.dir); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if d.ds, err = d.eng.Open(dataset, u); err != nil {
		t.Fatal(err)
	}
	if cl.perturb == "evict" {
		cost, err := engine.TableCost(u)
		if err != nil {
			t.Fatal(err)
		}
		d.eng.SetBudget(cost)
		if d.other, err = d.eng.Open(decoy, u); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *direct) ingest(t *testing.T, b []stream.Update) {
	if err := d.ds.Ingest(b); err != nil {
		t.Fatal(err)
	}
}

// move restarts the engine from its data dir, or hands the dataset to a
// second engine by Release, a file move and Adopt.
func (d *direct) move(t *testing.T) {
	next := engine.New(f, d.workers)
	if d.perturb == "restart" {
		if err := d.eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := next.SetDataDir(d.dir); err != nil {
			t.Fatal(err)
		}
		if n, err := next.Recover(); err != nil || n != 1 {
			t.Fatalf("recover: %d datasets, %v", n, err)
		}
	} else {
		n, err := d.eng.Release(dataset)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ds.Ingest(batches[0]); !errors.Is(err, engine.ErrReleased) {
			t.Fatalf("ingest through a released handle: %v, want ErrReleased", err)
		}
		if _, err := d.ds.SnapshotErr(); !errors.Is(err, engine.ErrReleased) {
			t.Fatalf("snapshot of a released handle: %v, want ErrReleased", err)
		}
		if _, ok := d.eng.Get(dataset); ok {
			t.Fatal("the released dataset is still registered")
		}
		dst := t.TempDir()
		file := store.DatasetFile(dataset)
		if err := os.Rename(filepath.Join(d.dir, file), filepath.Join(dst, file)); err != nil {
			t.Fatal(err)
		}
		if err := next.SetDataDir(dst); err != nil {
			t.Fatal(err)
		}
		if m, err := next.Adopt(dataset); err != nil || m != n {
			t.Fatalf("adopt: %d updates, %v; released %d", m, err, n)
		}
	}
	d.eng = next
	var ok bool
	if d.ds, ok = next.Get(dataset); !ok {
		t.Fatal("the moved dataset is not registered")
	}
}

func (d *direct) evict(t *testing.T) {
	if _, err := d.other.SnapshotErr(); err != nil {
		t.Fatal(err)
	}
	if d.ds.Resident() {
		t.Fatal("the dataset is still resident after the decoy was touched")
	}
}

func (d *direct) snapshot(t *testing.T) *engine.Snapshot {
	snap, err := d.ds.SnapshotErr()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func (d *direct) query(t *testing.T, c conformance.Case, v core.VerifierSession) error {
	p, err := d.snapshot(t).NewProver(c.Kind, c.Params)
	if err != nil {
		return err
	}
	_, err = core.Run(p, v)
	return err
}

func (d *direct) start(t *testing.T, c conformance.Case, v core.VerifierSession) func() error {
	panic("a direct snapshot has no connection to overlap on")
}

func (d *direct) posted(t *testing.T, c conformance.Case, mk func(fs.Binding) (core.VerifierSession, error)) (*fs.Proof, error) {
	pf, err := d.snapshot(t).GenerateProof(c.Kind, c.Params)
	if err != nil {
		return nil, err
	}
	v, err := mk(pf.Binding)
	if err != nil {
		return nil, err
	}
	return pf, pf.Binding.Verify(pf, v)
}

// backend is one engine process: a wire.Server over its own engine.
type backend struct {
	name    string
	workers int
	dir     string // "" keeps everything in memory
	budget  int64
	corrupt func([]int64) []int64
	eng     *engine.Engine
	srv     *wire.Server
	addr    string
}

func startBackend(t *testing.T, b *backend) *backend {
	t.Helper()
	b.eng = engine.New(f, b.workers)
	b.srv = &wire.Server{F: f, Workers: b.workers, Engine: b.eng, DataDir: b.dir, MemBudget: b.budget,
		Corrupt: b.corrupt}
	if b.corrupt != nil {
		// The honest proof after a lie must not be the cached lie.
		b.srv.ProofCacheBudget = -1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	srv, eng := b.srv, b.eng
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); _ = eng.Close() })
	// Serve recovers the data dir before it answers anything: wait for
	// that, or a checkpoint a handoff moves in later could be recovered
	// as well as adopted.
	c := dial(t, b.addr)
	if _, err := c.ServerStats(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	return b
}

// restart closes the process, final checkpoint included, and starts a
// new one that recovers the data dir on a new address.
func (b *backend) restart(t *testing.T) {
	t.Helper()
	if err := b.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.eng.Close(); err != nil {
		t.Fatal(err)
	}
	startBackend(t, b)
}

// resident reports whether the backend holds name's tables in memory.
func (b *backend) resident(name string) bool {
	ds, ok := b.eng.Get(name)
	return ok && ds.Resident()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 30 * time.Second
	c.FieldModulus = f.Modulus()
	t.Cleanup(func() { c.Close() })
	return c
}

// remote is a dataset behind a client connection. Its perturbations
// are the topology's; after a move it re-dials and re-attaches.
type remote struct {
	front func() string // the address the client dials
	c     *wire.Client
	n     uint64 // updates acknowledged so far
	moveF func(t *testing.T)
	held  *backend // the backend whose residency evict checks
	// fetched counts the proofs posted fetched twice; each second
	// fetch must have been a cache hit.
	fetched int
}

func (r *remote) attach(t *testing.T) {
	t.Helper()
	r.c = dial(t, r.front())
	if n, err := r.c.OpenDataset(dataset, u); err != nil || n != r.n {
		t.Fatalf("open %q: %d updates, %v; want %d", dataset, n, err, r.n)
	}
}

func (r *remote) ingest(t *testing.T, b []stream.Update) {
	n, err := r.c.Ingest(b)
	if err != nil || n != r.n+uint64(len(b)) {
		t.Fatalf("ingest: count %d, %v; want %d", n, err, r.n+uint64(len(b)))
	}
	r.n = n
}

func (r *remote) move(t *testing.T) {
	r.moveF(t)
	r.c.Close()
	r.attach(t)
}

// evict ingests one update into a decoy on the dataset's backend, whose
// budget holds one dataset, then re-attaches. The decoy goes out on the
// same connection, so every query already in flight took its snapshot
// first.
func (r *remote) evict(t *testing.T) {
	if _, err := r.c.OpenDataset(decoy, u); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.Ingest([]stream.Update{{Index: 1, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if r.held.resident(dataset) {
		t.Fatal("the dataset is still resident after the decoy was touched")
	}
	if n, err := r.c.OpenDataset(dataset, u); err != nil || n != r.n {
		t.Fatalf("re-attach %q: %d updates, %v; want %d", dataset, n, err, r.n)
	}
}

func (r *remote) query(t *testing.T, c conformance.Case, v core.VerifierSession) error {
	_, err := r.c.Query(c.Kind, c.Params, v)
	return err
}

func (r *remote) start(t *testing.T, c conformance.Case, v core.VerifierSession) func() error {
	h, err := r.c.QueryAsync(c.Kind, c.Params, v)
	if err != nil {
		return func() error { return err }
	}
	return func() error { _, err := h.Wait(); return err }
}

// cacheHit checks that a proof cache (the server's, a shard's, or the
// router's split-proof cache) answered the repeated fetches of posted.
func (r *remote) cacheHit(t *testing.T) {
	if r.fetched == 0 {
		return
	}
	st, err := r.c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ProofCache.Hits == 0 {
		t.Errorf("no posted proof came from a proof cache: %+v", st.ProofCache)
	}
}

// posted verifies the posted proof offline, then fetches it again at its
// version: the second answer comes from a proof cache (the router's, for
// a split dataset) and must be the same bytes.
func (r *remote) posted(t *testing.T, c conformance.Case, mk func(fs.Binding) (core.VerifierSession, error)) (*fs.Proof, error) {
	pf, _, err := r.c.QueryCached(c.Kind, c.Params, 0, mk)
	if err != nil {
		return pf, err
	}
	again, err := r.c.FetchProof(c.Kind, c.Params, pf.Version)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again.Encode(), pf.Encode()) {
		return nil, fmt.Errorf("a second fetch at version %d returned different bytes", pf.Version)
	}
	r.fetched++
	return pf, nil
}

// newBackend is a backend configured for cell cl: a data dir when the
// perturbation needs one, a one-dataset budget when it evicts.
func newBackend(t *testing.T, name string, cl cell) *backend {
	b := &backend{name: name, workers: cl.workers}
	if cl.perturb != "none" && cl.perturb != "interleaved" {
		b.dir = t.TempDir()
	}
	if cl.perturb == "evict" {
		cost, err := engine.TableCost(u)
		if err != nil {
			t.Fatal(err)
		}
		b.budget = cost
	}
	return startBackend(t, b)
}

func newServerDeployment(t *testing.T, cl cell) *remote {
	b := newBackend(t, "s1", cl)
	r := &remote{front: func() string { return b.addr }, held: b, moveF: b.restart}
	r.attach(t)
	return r
}

func startRouter(t *testing.T, tbl *shard.Table) (*shard.Router, string) {
	t.Helper()
	rt, err := shard.NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rt.Serve(ln) }()
	t.Cleanup(func() { _ = rt.Close() })
	return rt, ln.Addr().String()
}

// table lists the backends at their current addresses.
func table(bs []*backend, routes map[string]string, splits map[string]*shard.SplitSpec) *shard.Table {
	tbl := &shard.Table{Routes: routes, Splits: splits}
	for _, b := range bs {
		tbl.Shards = append(tbl.Shards, shard.ShardInfo{Name: b.name, Addr: b.addr, DataDir: b.dir})
	}
	return tbl
}

// newRouterDeployment puts two shards behind a router, with the dataset
// (and the evict cells' decoy) pinned to the second.
func newRouterDeployment(t *testing.T, cl cell) *remote {
	bs := []*backend{newBackend(t, "s1", cl), newBackend(t, "s2", cl)}
	routes := map[string]string{dataset: "s2", decoy: "s2"}
	rt, addr := startRouter(t, table(bs, routes, nil))
	r := &remote{front: func() string { return addr }, held: bs[1]}
	r.moveF = func(t *testing.T) {
		if cl.perturb == "handoff" {
			if err := rt.Rebalance(dataset, "s1"); err != nil {
				t.Fatal(err)
			}
			return
		}
		bs[1].restart(t)
		if err := rt.SetTable(table(bs, rt.Table().Routes, nil)); err != nil {
			t.Fatal(err)
		}
	}
	r.attach(t)
	return r
}

// newSplitDeployment splits the dataset across S owners behind a router,
// with a spare shard for the handoff cells' slice rebalance.
func newSplitDeployment(t *testing.T, cl cell) *remote {
	var bs []*backend
	owners := make([]string, cl.slices)
	for k := range owners {
		owners[k] = fmt.Sprintf("s%d", k+1)
		bs = append(bs, newBackend(t, owners[k], cl))
	}
	if cl.perturb == "handoff" {
		bs = append(bs, newBackend(t, "spare", cl))
	}
	splits := func() map[string]*shard.SplitSpec {
		return map[string]*shard.SplitSpec{dataset: {Slices: cl.slices, Owners: append([]string(nil), owners...)}}
	}
	rt, addr := startRouter(t, table(bs, nil, splits()))
	r := &remote{front: func() string { return addr }}
	r.moveF = func(t *testing.T) {
		if cl.perturb == "handoff" {
			if err := rt.RebalanceSlice(dataset, cl.slices-1, "spare"); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, b := range bs {
			b.restart(t)
		}
		if err := rt.SetTable(table(bs, nil, splits())); err != nil {
			t.Fatal(err)
		}
	}
	r.attach(t)
	return r
}
