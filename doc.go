// Package repro is a from-scratch Go reproduction of Cormode, Thaler &
// Yi, "Verifying Computations with Streaming Interactive Proofs"
// (PVLDB 5(1), 2011; arXiv:1109.6882).
//
// The public API lives in repro/sip. Two things time anything:
// cmd/sipbench (over internal/harness) regenerates the series behind
// every figure of the paper's §5, and `go run ./bench` measures the
// service built around the protocols. Beyond the paper's fixed query
// menu, the engine serves CIRCUIT queries — the general Theorem-3
// GKR/"Muggles" protocol over a registry of named layered-circuit
// families (F2, COUNT, MATMUL) — engine-backed, parallelized, and
// multiplexed on the wire like any other query kind. See README.md for
// a tour, DESIGN.md for the system inventory, and EXPERIMENTS.md for
// the paper-vs-measured comparison.
package repro
