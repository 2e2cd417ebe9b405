// Package fs implements the Fiat–Shamir layer: deterministic verifier
// randomness derived from a domain-separated transcript hash, and a
// serializable Proof that replays one recorded conversation to any
// number of offline verifiers.
//
// The protocols in this repository are streaming interactive proofs in
// the sense of Cormode–Thaler–Yi: the verifier samples ALL of its
// randomness up front (the LDE evaluation point, the hash-tree
// coefficients, the GKR layer challenges), condenses the stream into an
// O(log u) fingerprint at that randomness, and then reveals the
// pre-sampled coordinates one per round — no challenge ever depends on
// a prover message. Concretely, every verifier constructor in core/gkr
// takes a field.RNG and draws from it only at construction time.
//
// That structure makes the Fiat–Shamir transform unusually clean: it is
// enough to replace the secret RNG with a public, deterministic one
// seeded by a transcript over the public parameters — field modulus,
// universe size, dataset name, dataset VERSION, and the canonical query
// encoding. Binding the dataset version into the seed means every
// ingest batch rotates the challenge point, so a proof is pinned to one
// immutable snapshot of the data and a cache key of
// (dataset, version, query) can never serve a stale proof.
//
// What a proof certifies: integrity against third parties, no soundness
// against the server that generates it. The challenge point cannot
// depend on prover messages (the streaming verifier must know it before
// the stream), and here it is a hash of public values, so the prover
// knows every challenge before it writes a message. Committing the data
// first does not help: knowing r₁, a prover adds c·(X − r₁) to its
// honest first sum-check message, with c = Δ/(1 − 2r₁), claims C + Δ,
// answers the later rounds honestly, and the client's verifier accepts
// (engine.TestPostedProofForgery). The transcript digest binds the
// messages only against later alteration — the server computes it over
// its own messages. A proof is therefore evidence that a cache, mirror
// or relay did not alter what the server recorded; soundness against the
// server itself needs a secret verifier RNG and an interactive
// conversation. See DESIGN.md, "Transcript-hash schedule".
package fs

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/field"
)

// Transcript is a running domain-separated hash. Absorb calls fold
// labeled data into the state; RNG snapshots the current state as the
// seed of a deterministic counter-mode generator; Digest returns the
// current state for use as a binding checksum.
type Transcript struct {
	state [sha256.Size]byte
}

// New returns a transcript whose initial state commits to the domain
// string, separating e.g. proof transcripts from any future use.
func New(domain string) *Transcript {
	t := &Transcript{}
	t.absorb(tagDomain, domain, nil)
	return t
}

// Absorption tags keep differently-shaped inputs from colliding.
const (
	tagDomain byte = 0x01
	tagBytes  byte = 0x02
	tagUint   byte = 0x03
	tagMsg    byte = 0x04
	tagRNG    byte = 0x05
)

// absorb sets state = H(state ‖ tag ‖ len(label) ‖ label ‖ len(data) ‖ data).
// Length prefixes make the encoding injective.
func (t *Transcript) absorb(tag byte, label string, data []byte) {
	h := sha256.New()
	h.Write(t.state[:])
	var hdr [1 + 8]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(label)))
	h.Write(hdr[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(data)))
	h.Write(hdr[1:])
	h.Write(data)
	h.Sum(t.state[:0])
}

// AbsorbBytes folds a labeled byte string into the transcript.
func (t *Transcript) AbsorbBytes(label string, b []byte) { t.absorb(tagBytes, label, b) }

// AbsorbUint folds a labeled 64-bit integer into the transcript.
func (t *Transcript) AbsorbUint(label string, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.absorb(tagUint, label, b[:])
}

// AbsorbMsg folds a prover message into the transcript under a
// canonical encoding (int count, ints, elem count, elems — all 64-bit
// little-endian), so any bit of any recorded message perturbs the
// digest.
func (t *Transcript) AbsorbMsg(label string, m core.Msg) {
	buf := make([]byte, 0, 16+8*(len(m.Ints)+len(m.Elems)))
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	put(uint64(len(m.Ints)))
	for _, v := range m.Ints {
		put(v)
	}
	put(uint64(len(m.Elems)))
	for _, e := range m.Elems {
		put(uint64(e))
	}
	t.absorb(tagMsg, label, buf)
}

// Digest returns the current transcript state.
func (t *Transcript) Digest() [sha256.Size]byte { return t.state }

// RNG returns a deterministic field.RNG seeded by the transcript state
// at the moment of the call (later absorbs do not affect it). Blocks
// are H(seed ‖ counter), consumed as four 64-bit words each — a
// counter-mode hash stream.
func (t *Transcript) RNG(label string) field.RNG {
	seed := *t
	seed.absorb(tagRNG, label, nil)
	return &hashRNG{seed: seed.state}
}

type hashRNG struct {
	seed [sha256.Size]byte
	buf  [sha256.Size]byte
	idx  int // next byte offset in buf; sha256.Size means "refill"
	ctr  uint64
}

func (r *hashRNG) Uint64() uint64 {
	if r.idx == 0 || r.idx >= sha256.Size {
		h := sha256.New()
		h.Write(r.seed[:])
		var c [8]byte
		binary.LittleEndian.PutUint64(c[:], r.ctr)
		r.ctr++
		h.Write(c[:])
		h.Sum(r.buf[:0])
		r.idx = 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.idx:])
	r.idx += 8
	return v
}
