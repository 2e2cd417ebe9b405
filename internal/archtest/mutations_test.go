package archtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A row is one violation of a rule, checked in memory: files added to or
// replacing the tree's, named by slash path from the module root, given
// inline (files) or restored from a testdata copy of code the tree has
// deleted (restore, path → testdata file). The rule must report it at a
// line of the row's files, with every want among those reports. A clean
// row is a near miss instead: the rule must report nothing at its files.
type row struct {
	rule, name string
	files      map[string]string
	restore    map[string]string
	want       []string
	clean      bool
}

// streamSumDeltas replaces internal/stream/stream.go with its update type
// and SumDeltas, a function testOnly lists.
const streamSumDeltas = `package stream

type Update struct {
	Index uint64
	Delta int64
}

func SumDeltas(updates []Update) int64 {
	var n int64
	for _, u := range updates {
		n += u.Delta
	}
	return n
}
`

// streamBatch adds a type with an exported method no non-test code calls
// to internal/stream.
const streamBatch = `package stream

// Batch is a run of updates.
type Batch []Update

// Span returns the width of the index range the batch touches.
func (b Batch) Span() uint64 {
	lo, hi := b[0].Index, b[0].Index
	for _, u := range b {
		lo, hi = min(lo, u.Index), max(hi, u.Index)
	}
	return hi - lo + 1
}
`

// streamSource adds a type with a Name() string method, the shape
// io/fs.FileInfo, io/fs.DirEntry and testing.TB declare, to
// internal/stream.
const streamSource = `package stream

// Source names a stream.
type Source struct{ name string }

// Name returns the source's name.
func (s Source) Name() string { return s.name }
`

var rows = []row{
	// sumcheck-halves
	{rule: "sumcheck-halves", name: "function value", files: map[string]string{"internal/engine/mk.go": `package engine

import "repro/internal/sumcheck"

func verifierMaker() {
	mk := sumcheck.NewVerifier
	_ = mk
}
`}, want: []string{"uses sumcheck.NewVerifier"}},
	{rule: "sumcheck-halves", name: "instantiated function value", files: map[string]string{"internal/engine/mk.go": `package engine

import "repro/internal/sumcheck"

var mk = sumcheck.NewProver[int64]
`}, want: []string{"uses sumcheck.NewProver"}},
	{rule: "sumcheck-halves", name: "aliased import", files: map[string]string{"internal/wire/sc.go": `package wire

import sc "repro/internal/sumcheck"

func openCounts(cfg sc.Config, tab sc.Counts) (*sc.Prover, error) {
	return sc.NewProver(cfg, sc.ScanLivePairs(cfg.Params.Ell, 0, tab), tab)
}
`}, want: []string{"uses sumcheck.NewProver"}},
	{rule: "sumcheck-halves", name: "core beside the halves", files: map[string]string{"internal/core/direct.go": `package core

import (
	"repro/internal/field"
	"repro/internal/sumcheck"
)

func direct(cfg sumcheck.Config, r []field.Elem) (*sumcheck.Verifier, error) {
	return sumcheck.NewVerifier(cfg, r, 0, 0)
}
`}, want: []string{"uses sumcheck.NewVerifier"}},

	// prover-side
	{rule: "prover-side", name: "router writes a prover frame", files: map[string]string{"internal/shard/frame.go": `package shard

import "repro/internal/wire/frames"

var proverFrame byte = frames.ProverCh
`}, want: []string{"frames.ProverCh"}},
	{rule: "prover-side", name: "router writes a proof frame, aliased", files: map[string]string{"internal/shard/frame.go": `package shard

import fr "repro/internal/wire/frames"

var proofFrame byte = fr.ProofCh
`}, want: []string{"frames.ProofCh"}},
	{rule: "prover-side", name: "second accept loop", files: map[string]string{"internal/shard/accept.go": `package shard

import "net"

func acceptLoop(ln net.Listener, handle func(net.Conn)) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go handle(conn)
	}
}
`}, want: []string{"an Accept outside wire.Lifecycle", "2 Accept calls"}},
	{rule: "prover-side", name: "accept method value", files: map[string]string{"internal/wire/accept.go": `package wire

import "net"

func acceptor(ln *net.TCPListener) func() (net.Conn, error) { return ln.Accept }
`}, want: []string{"an Accept outside wire.Lifecycle"}},
	{rule: "prover-side", name: "router prover session (9e45139^)", restore: map[string]string{
		"internal/shard/splitprover.go": "9e45139-shard-splitprover.go",
	}, want: []string{"declares the prover session splitProver"}},

	// kind-table
	{rule: "kind-table", name: "wire/replay.go (e16a83d^)", restore: map[string]string{
		"internal/wire/replay.go": "e16a83d-wire-replay.go",
	}, want: []string{"a switch on engine.QueryKind"}},
	{rule: "kind-table", name: "wire alias", files: map[string]string{"cmd/sipclient/kind.go": `package main

import "repro/internal/wire"

func kindName(k wire.QueryKind) string {
	switch k {
	case wire.QueryFk:
		return "Fk"
	}
	return ""
}
`}, want: []string{"a switch on engine.QueryKind"}},
	{rule: "kind-table", name: "engine beside kinds.go", files: map[string]string{"internal/engine/rows.go": `package engine

func rowsOf(k QueryKind) int {
	switch k {
	case QueryRangeSum:
		return 1
	}
	return 0
}
`}, want: []string{"a switch on engine.QueryKind"}},
	{rule: "kind-table", name: "sip alias tag", files: map[string]string{"examples/quickstart/kind.go": `package main

import "repro/sip"

func isSelfJoin(k, want sip.QueryKind) bool {
	switch k {
	case want:
		return true
	}
	return false
}
`}, want: []string{"a switch on engine.QueryKind"}},
	{rule: "kind-table", name: "test switch through an aliased import", files: map[string]string{"internal/shard/kind_test.go": `package shard_test

import e "repro/internal/engine"

func kindName(k e.QueryKind) string {
	switch k {
	case e.QueryF0:
		return "F0"
	}
	return ""
}
`}, want: []string{"a test switches on engine.QueryKind"}},
	{rule: "kind-table", name: "in-package test switch", files: map[string]string{"internal/engine/kind_test.go": `package engine

func kindName(k QueryKind) string {
	switch k {
	case QueryFmax:
		return "Fmax"
	}
	return ""
}
`}, want: []string{"a test switches on engine.QueryKind"}},
	{rule: "kind-table", name: "harness names a summary family", files: map[string]string{"internal/harness/draw.go": `package harness

import (
	"repro/internal/core"
	"repro/internal/field"
)

func draw(f field.Field, d int, rng field.RNG) core.Summary {
	return core.DrawSummary(f, d, core.FamilyPoint, rng)
}
`}, want: []string{"names core.FamilyPoint"}},

	// no-concrete-verifier
	{rule: "no-concrete-verifier", name: "type switch case", files: map[string]string{"sip/answer.go": `package sip

import "repro/internal/core"

func isFk(v core.VerifierSession) bool {
	switch v.(type) {
	case *core.FkVerifier:
		return true
	}
	return false
}
`}, want: []string{"a type switch lists the concrete verifier type *repro/internal/core.FkVerifier"}},
	{rule: "no-concrete-verifier", name: "type assertion", files: map[string]string{"examples/quickstart/assert.go": `package main

import "repro/internal/core"

func fk(v core.VerifierSession) *core.FkVerifier { return v.(*core.FkVerifier) }
`}, want: []string{"asserts the concrete verifier type"}},
	{rule: "no-concrete-verifier", name: "assertion through a sip alias", files: map[string]string{"sip/assert.go": `package sip

import (
	"repro/internal/core"
	"repro/internal/gkr"
)

type CircuitVerifier = gkr.VerifierSession

func circuit(v core.VerifierSession) *CircuitVerifier { return v.(*CircuitVerifier) }
`}, want: []string{"asserts the concrete verifier type *repro/internal/gkr.VerifierSession"}},
	{rule: "no-concrete-verifier", name: "streaming client builds a verifier", files: map[string]string{"internal/kvstore/verifier.go": `package kvstore

import (
	"repro/internal/core"
	"repro/internal/field"
)

func verifier(f field.Field, u uint64) (core.VerifierSession, error) {
	proto, err := core.NewFk(f, u, 2)
	if err != nil {
		return nil, err
	}
	return proto.Adopt(core.DrawSummary(f, proto.Params.D, core.FamilyPoint, field.CryptoRNG{})), nil
}
`}, want: []string{"builds a verifier with Adopt"}},
	{rule: "no-concrete-verifier", name: "streaming client keeps a verifier maker", files: map[string]string{"examples/concurrentqueries/mk.go": `package main

import (
	"repro/internal/core"
	"repro/internal/field"
)

func maker(proto *core.RangeSum, rng field.RNG) (func(core.Summary) *core.RangeSumVerifier, core.Summary) {
	return proto.Adopt, core.DrawSummary(proto.F, proto.Params.D, core.FamilyPoint, rng)
}
`}, want: []string{"builds a verifier with Adopt"}},

	// codec-seams
	{rule: "codec-seams", name: "non-test conformance import", files: map[string]string{"cmd/sipbench/conf.go": `package main

import _ "repro/internal/conformance"
`}, want: []string{"a non-test file imports repro/internal/conformance"}},
	{rule: "codec-seams", name: "frames in sip", files: map[string]string{"sip/frames.go": `package sip

import "repro/internal/wire/frames"

var queryFrame byte = frames.QueryCh
`}, want: []string{"imports repro/internal/wire/frames"}},
	{rule: "codec-seams", name: "aliased frames in a test", files: map[string]string{"cmd/sipclient/frames_test.go": `package main

import fr "repro/internal/wire/frames"

var queryFrame byte = fr.QueryCh
`}, want: []string{"imports repro/internal/wire/frames"}},
	{rule: "codec-seams", name: "frames in bench", files: map[string]string{"bench/frames.go": `package main

import "repro/internal/wire/frames"

var queryFrame byte = frames.QueryCh
`}, want: []string{"imports repro/internal/wire/frames"}},

	// prover-input
	{rule: "prover-input", name: "wire/replay.go (e16a83d^)", restore: map[string]string{
		"internal/wire/replay.go": "e16a83d-wire-replay.go",
	}, want: []string{"an Observe-fed NewProver() outside internal/ccm"}},
	{rule: "prover-input", name: "prover grows Observe", files: map[string]string{"internal/core/observe.go": `package core

import "repro/internal/stream"

func (pr *FkProver) Observe(up stream.Update) error { return nil }
`}, want: []string{"the prover session FkProver has Observe"}},
	{rule: "prover-input", name: "test prover with Observe", files: map[string]string{"internal/engine/observe_test.go": `package engine_test

import (
	"repro/internal/core"
	"repro/internal/stream"
)

type streamed struct{}

func (streamed) Open() (core.Msg, error)         { return core.Msg{}, nil }
func (streamed) Step(core.Msg) (core.Msg, error) { return core.Msg{}, nil }
func (streamed) Observe(stream.Update) error     { return nil }
`}, want: []string{"a test gives the prover streamed an Observe method"}},
	{rule: "prover-input", name: "in-package test gives a prover Observe", files: map[string]string{"internal/core/observe_test.go": `package core

import "repro/internal/stream"

func (pr *RangeSumProver) Observe(up stream.Update) error { return nil }
`}, want: []string{"a test gives the prover RangeSumProver an Observe method"}},
	{rule: "prover-input", name: "ccm prover maker outside ccm", files: map[string]string{"internal/engine/baseline.go": `package engine

import (
	"repro/internal/ccm"
	"repro/internal/field"
)

func baseline(f field.Field, u uint64) (*ccm.Prover, error) {
	proto, err := ccm.New(f, u)
	if err != nil {
		return nil, err
	}
	mk := proto.NewProver
	return mk(), nil
}
`}, want: []string{"an Observe-fed NewProver outside internal/ccm"}},
	{rule: "prover-input", name: "test calls NewProver()", files: map[string]string{"internal/wire/baseline_test.go": `package wire

import (
	"repro/internal/ccm"
	"repro/internal/field"
)

func baseline() {
	proto, _ := ccm.New(field.Mersenne(), 16)
	_ = proto.NewProver()
}
`}, want: []string{"a test calls an Observe-fed NewProver()"}},

	// gkr-sessions
	{rule: "gkr-sessions", name: "step API and wrapReject (49c0dfd^)", restore: map[string]string{
		"internal/gkr/steps.go": "49c0dfd-gkr-steps.go",
	}, want: []string{
		"gained ErrRejected", "gained Verifier;", "gained Prover;",
		"gained Verifier.ReceiveOutputs", "gained Verifier.ReceiveSumcheck", "gained Verifier.SumcheckRoundsLeft",
		"gained Verifier.ReceiveLine", "gained Prover.StartLayer", "gained Prover.SumcheckMsg", "gained Prover.LinePoly",
		"gained Prover.FinishLayer", "names core.ErrRejected outside reject",
	}},
	{rule: "gkr-sessions", name: "second local driver", files: map[string]string{"internal/gkr/run.go": `package gkr

import "repro/internal/core"

func Run(p *ProverSession, v *VerifierSession) (core.Stats, error) { return core.Run(p, v) }
`}, want: []string{"gained Run"}},
	{rule: "gkr-sessions", name: "test-side driver and state machine", files: map[string]string{"internal/gkr/run_test.go": `package gkr

type Verifier struct{}

func (v *Verifier) ReceiveLine() error { return nil }

func Run() {}
`}, want: []string{"exported type Verifier", "method Verifier.ReceiveLine", "exported function Run"}},

	// split-session
	{rule: "split-session", name: "split aggregator (9e45139^)", restore: map[string]string{
		"internal/core/aggregator.go": "9e45139-core-aggregator.go",
	}, want: []string{"gained SplitAggregator;", "gained NewSplitAggregator", "gained SplitAggregator.TailStarted", "gained SplitAggregator.HeadRounds"}},
	{rule: "split-session", name: "router adapter (9e45139^)", restore: map[string]string{
		"internal/shard/splitprover.go": "9e45139-shard-splitprover.go",
	}, want: []string{"gained internal/shard.splitProver"}},
	{rule: "split-session", name: "test loop (9e45139^)", restore: map[string]string{
		"internal/core/splitsession_test.go": "9e45139-core-splitsession_test.go",
	}, want: []string{"gained internal/core.splitSession"}},
	{rule: "split-session", name: "second collapsed-prover constructor", files: map[string]string{"internal/core/collapse.go": `package core

import (
	"repro/internal/field"
	"repro/internal/sumcheck"
)

// NewCollapsedSplitProver proves a split dataset from its owners' live
// pairs alone, beside the SplitProver that already collapses.
func NewCollapsedSplitProver(cfg sumcheck.Config, idx []uint32, pairs [][]field.Elem) (*sumcheck.Prover, error) {
	return sumcheck.NewPairsProver(cfg, idx, pairs)
}
`}, want: []string{"gained NewCollapsedSplitProver"}},
	{rule: "split-session", name: "test-side aggregator", files: map[string]string{"internal/core/aggregator_test.go": `package core

type SplitAggregator struct{ parts []Msg }

func (a *SplitAggregator) TailStarted() bool { return false }
`}, want: []string{"a core test declares SplitAggregator beside", "a core test declares SplitAggregator.TailStarted"}},

	// sumcheck-shape
	{rule: "sumcheck-shape", name: "chunked fork (86d849e^)", restore: map[string]string{
		"internal/sumcheck/chunked.go": "86d849e-sumcheck-chunked.go",
	}, want: []string{
		"gained NewChunkedProver", "gained NewPartialChunkedProver", "gained Prover.chunkMessage",
		"gained Prover.foldChunks", "gained Prover.messageFused", "gained Prover.foldFused",
	}},
	{rule: "sumcheck-shape", name: "chunked Fk constructors (86d849e^)", restore: map[string]string{
		"internal/core/chunked.go": "86d849e-core-chunked.go",
	}, want: []string{"gained Fk.NewProverFromChunks", "gained Fk.NewPartialProverFromChunks"}},
	{rule: "sumcheck-shape", name: "tail constructor beside the pairs one", files: map[string]string{"internal/sumcheck/tail.go": `package sumcheck

import (
	"math/bits"

	"repro/internal/field"
	"repro/internal/lde"
)

func NewTailProver(cfg Config, leaves [][]field.Elem) (*Prover, error) {
	s := len(leaves)
	pairs := make([][]field.Elem, cfg.Combiner.Arity())
	for t := range pairs {
		for _, lv := range leaves {
			pairs[t] = append(pairs[t], lv[t])
		}
	}
	idx := make([]uint32, s/2)
	for w := range idx {
		idx[w] = uint32(w)
	}
	cfg.Params = lde.Params{Ell: 2, D: bits.TrailingZeros(uint(s)), U: uint64(s)}
	return NewPairsProver(cfg, idx, pairs)
}
`}, want: []string{"gained NewTailProver"}},
	{rule: "sumcheck-shape", name: "second verifier constructor", files: map[string]string{"internal/sumcheck/chunkedv.go": `package sumcheck

import "repro/internal/field"

func NewChunkedVerifier(cfg Config, r []field.Elem, total field.Elem) (*Verifier, error) {
	return NewVerifier(cfg, r, total, 0)
}
`}, want: []string{"sumcheck's verifier constructors gained NewChunkedVerifier"}},
	{rule: "sumcheck-shape", name: "fold walk as a function", files: map[string]string{"internal/sumcheck/walk.go": `package sumcheck

import "repro/internal/field"

func foldChunks(p *Prover, r field.Elem) {}
`}, want: []string{"gained foldChunks"}},
	{rule: "sumcheck-shape", name: "test-side prover method", files: map[string]string{"internal/sumcheck/fork_test.go": `package sumcheck

import "repro/internal/field"

func (p *Prover) foldChunks(r field.Elem) {}
`}, want: []string{"declares the prover method foldChunks"}},

	// one-schedule
	{rule: "one-schedule", name: "schedules of the unposted kinds (98b034b^)", restore: map[string]string{
		"internal/core/schedules.go": "98b034b-core-schedules.go",
	}, want: []string{
		"FmaxVerifier.Challenges", "FrequencyBasedVerifier.Challenges",
		"HeavyHittersVerifier.Challenges", "SubVectorVerifier.Challenges",
	}},
	{rule: "one-schedule", name: "test-side schedule", files: map[string]string{"internal/engine/schedule_test.go": `package engine_test

import "repro/internal/core"

type fixed struct{}

func (fixed) Challenges() []core.Msg { return nil }
`}, want: []string{"fixed.Challenges is a second challenge schedule"}},

	// fan-out-sites
	{rule: "fan-out-sites", name: "circuit evaluation fans out again", files: map[string]string{"internal/circuit/eval.go": `package circuit

import "repro/internal/parallel"

var evalWorkers = parallel.Workers(-1)
`}, want: []string{"imports internal/parallel outside"}},
	{rule: "fan-out-sites", name: "test imports the pool, aliased", files: map[string]string{"internal/lde/pool_test.go": `package lde

import pool "repro/internal/parallel"

var chunks = pool.Chunks(2, 1<<12)
`}, want: []string{"imports internal/parallel outside"}},
	{rule: "fan-out-sites", name: "protocol description carries a count", files: map[string]string{"internal/core/knob.go": `package core

// Knob is a protocol description with a worker count.
type Knob struct {
	Workers int
}
`}, want: []string{"internal/core.Knob has Workers"}},
	{rule: "fan-out-sites", name: "SetWorkers on a gkr type", files: map[string]string{"internal/gkr/knob.go": `package gkr

type knob struct{ n int }

// SetWorkers sets the fan-out.
func (k *knob) SetWorkers(n int) { k.n = n }
`}, want: []string{"internal/gkr.knob has SetWorkers"}},
	{rule: "fan-out-sites", name: "promoted Workers field", files: map[string]string{"internal/ccm/tree.go": `package ccm

import "repro/internal/hashtree"

type treeProver struct {
	*hashtree.IncrementalTree
}
`}, want: []string{"internal/ccm.treeProver has Workers"}},
	{rule: "fan-out-sites", name: "a prover holds its count", clean: true, files: map[string]string{"internal/core/held.go": `package core

type heldProver struct {
	workers int
}

func newHeld(workers int) *heldProver { return &heldProver{workers: workers} }
`, "internal/engine/pool.go": `package engine

import "repro/internal/parallel"

var poolSize = parallel.Workers(2)
`}},

	// no-field-image
	{rule: "no-field-image", name: "field-image column (9a69e44^)", restore: map[string]string{
		"internal/engine/table.go": "9a69e44-engine-table.go",
		"internal/engine/elems.go": "9a69e44-engine-elems.go",
	}, want: []string{"the field elems holds field elements", "elemsOf returns", "Elems returns", "elemChunks returns"}},
	{rule: "no-field-image", name: "image beside the counts", files: map[string]string{"internal/engine/image.go": `package engine

import "repro/internal/field"

type image struct {
	cols map[uint64][]field.Elem
}
`}, want: []string{"the field cols holds field elements"}},

	// test-only-export
	{rule: "test-only-export", name: "export only a test calls", files: map[string]string{
		"internal/stream/pick.go": `package stream

// Pick returns the i-th update.
func Pick(ups []Update, i int) Update { return ups[i] }
`,
		"internal/stream/pick_test.go": `package stream

import "testing"

func TestPick(t *testing.T) { _ = Pick([]Update{{}}, 0) }
`}, want: []string{"internal/stream.Pick is exported, but only tests call it"}},
	{rule: "test-only-export", name: "recursion is no use", files: map[string]string{"internal/lde/depth.go": `package lde

// Depth returns ⌊log₂ n⌋.
func Depth(n uint64) int {
	if n <= 1 {
		return 0
	}
	return 1 + Depth(n/2)
}
`}, want: []string{"internal/lde.Depth is exported, but only tests call it"}},
	{rule: "test-only-export", name: "listed function", clean: true, files: map[string]string{
		"internal/stream/stream.go": streamSumDeltas,
	}},
	{rule: "test-only-export", name: "listed function gains a non-test use", files: map[string]string{
		"internal/stream/stream.go": streamSumDeltas,
		"cmd/sipbench/sum.go": `package main

import "repro/internal/stream"

var total = stream.SumDeltas(nil)
`}, want: []string{"internal/stream.SumDeltas is listed in testOnly, but non-test code uses it"}},
	{rule: "test-only-export", name: "in-package non-test caller", clean: true, files: map[string]string{"internal/stream/pick.go": `package stream

// Pick returns the i-th update.
func Pick(ups []Update, i int) Update { return ups[i] }

// last returns the final update.
func last(ups []Update) Update { return Pick(ups, len(ups)-1) }
`}},
	{rule: "test-only-export", name: "conformance is test support", clean: true, files: map[string]string{"internal/conformance/pick.go": `package conformance

// Pick returns its argument.
func Pick(i int) int { return i }
`}},
	{rule: "test-only-export", name: "method only a test calls", files: map[string]string{
		"internal/stream/batch.go": streamBatch,
		"internal/stream/batch_test.go": `package stream

import "testing"

func TestSpan(t *testing.T) { _ = Batch{{}}.Span() }
`}, want: []string{"internal/stream.Batch.Span is an exported method only tests call"}},
	{rule: "test-only-export", name: "method used through a literal interface", clean: true, files: map[string]string{
		"internal/stream/batch.go": streamBatch + `
// spanOf reads any span.
func spanOf(x interface{ Span() uint64 }) uint64 { return x.Span() }

// width reads a batch's span.
func width(b Batch) uint64 { return spanOf(b) }
`}},
	{rule: "test-only-export", name: "interface declares the method, nothing converts to it", files: map[string]string{
		"internal/stream/batch.go": streamBatch + `
// spanOf reads any span.
func spanOf(x interface{ Span() uint64 }) uint64 { return x.Span() }
`}, want: []string{"internal/stream.Batch.Span is an exported method only tests call"}},
	{rule: "test-only-export", name: "dead method of a standard library shape", files: map[string]string{
		"internal/stream/source.go": streamSource,
		"internal/stream/size.go": `package stream

import "io/fs"

// size reads a file's size.
func size(fi fs.FileInfo) int64 { return fi.Size() }
`}, want: []string{"internal/stream.Source.Name is an exported method only tests call"}},
	{rule: "test-only-export", name: "compile-time assertion is no use", files: map[string]string{
		"internal/stream/source.go": streamSource + `
var _ interface{ Name() string } = Source{}
`}, want: []string{"internal/stream.Source.Name is an exported method only tests call"}},
	{rule: "test-only-export", name: "method reached through an assertion", clean: true, files: map[string]string{
		"internal/stream/source.go": streamSource + `
// nameOf names v when it has a name.
func nameOf(v any) string {
	if n, ok := v.(interface{ Name() string }); ok {
		return n.Name()
	}
	return ""
}

// label names a source through nameOf.
func label(s Source) string { return nameOf(s) }
`}},
	{rule: "test-only-export", name: "method reached through a type argument", clean: true, files: map[string]string{
		"internal/stream/source.go": streamSource + `
// nameOf names any named value.
func nameOf[T interface{ Name() string }](v T) string { return v.Name() }

// label names a source through nameOf.
func label(s Source) string { return nameOf(s) }
`}},
	{rule: "test-only-export", name: "listed method gains a non-test use", files: map[string]string{"cmd/siprouter/table.go": `package main

import "repro/internal/shard"

func routes(r *shard.Router) *shard.Table { return r.Table() }
`}, want: []string{"internal/shard.Router.Table is listed in testOnlyMethods, but non-test code uses it"}},
}

// TestMutations checks that every rule reports each of its rows, and that
// every rule has a row.
func TestMutations(t *testing.T) {
	m := tree(t)
	byName := map[string]rule{}
	for _, r := range rules {
		byName[r.name] = r
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.rule] = true
		t.Run(row.rule+"/"+row.name, func(t *testing.T) {
			r, ok := byName[row.rule]
			if !ok {
				t.Fatalf("no rule %q", row.rule)
			}
			files := map[string]string{}
			for name, src := range row.files {
				files[name] = src
			}
			for name, data := range row.restore {
				src, err := os.ReadFile(filepath.Join("testdata", data))
				if err != nil {
					t.Fatal(err)
				}
				files[name] = string(src)
			}
			var in []string
			for _, f := range r.check(t, m.with(t, files)) {
				if _, ok := files[f[:strings.Index(f, ":")]]; ok {
					in = append(in, f)
				}
			}
			if row.clean {
				if len(in) > 0 {
					t.Fatalf("%s reports a clean row:\n%s", row.rule, strings.Join(in, "\n"))
				}
				return
			}
			if len(in) == 0 {
				t.Fatalf("%s reports nothing in the row's files", row.rule)
			}
			for _, w := range row.want {
				if !strings.Contains(strings.Join(in, "\n"), w) {
					t.Errorf("no report says %q; got:\n%s", w, strings.Join(in, "\n"))
				}
			}
		})
	}
	for _, r := range rules {
		if !covered[r.name] {
			t.Errorf("rule %s has no mutation row", r.name)
		}
	}
}
