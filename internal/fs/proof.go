package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/field"
)

// Query is the canonical query descriptor a proof is bound to. It
// mirrors the engine's (QueryKind, QueryParams) pair without importing
// the engine (fs sits below it in the layering).
type Query struct {
	Kind    uint8
	A, B    uint64
	K       int64
	Phi     float64
	Circuit string
}

// Encode returns the canonical fixed-width encoding used for transcript
// absorption, cache keys, and the wire codec. It is injective: distinct
// queries never encode equal.
func (q Query) Encode() []byte {
	b := make([]byte, 0, 1+8*4+8+len(q.Circuit))
	b = append(b, q.Kind)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		b = append(b, w[:]...)
	}
	put(q.A)
	put(q.B)
	put(uint64(q.K))
	put(math.Float64bits(q.Phi))
	put(uint64(len(q.Circuit)))
	return append(b, q.Circuit...)
}

// maxCircuitName bounds the circuit family name, matching the wire
// layer's query codec.
const maxCircuitName = 64

func decodeQueryDesc(b []byte) (Query, []byte, error) {
	if len(b) < 1+8*5 {
		return Query{}, nil, errors.New("fs: query descriptor truncated")
	}
	var q Query
	q.Kind = b[0]
	b = b[1:]
	take := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	q.A = take()
	q.B = take()
	q.K = int64(take())
	q.Phi = math.Float64frombits(take())
	n := take()
	if n > maxCircuitName || uint64(len(b)) < n {
		return Query{}, nil, errors.New("fs: query circuit name overflows descriptor")
	}
	q.Circuit = string(b[:n])
	return q, b[n:], nil
}

// Binding names the immutable context a proof commits to: the field,
// the universe, one version of one dataset, and one query. Both ends
// derive the verifier's randomness from it, so agreeing on the binding
// IS agreeing on the challenges.
type Binding struct {
	Modulus  uint64
	Universe uint64
	Dataset  string
	Version  uint64
	Query    Query
}

// transcriptDomain versions the whole transcript schedule; bump it if
// the absorption order ever changes.
const transcriptDomain = "sip/fs/v1"

// Transcript returns the seed transcript for the binding. The
// absorption order is fixed — modulus, universe, dataset, version,
// query — and documented in DESIGN.md; the version is absorbed before
// the RNG is split off, which is what binds the dataset version into
// the first (and every) challenge.
func (b Binding) Transcript() *Transcript {
	t := New(transcriptDomain)
	t.AbsorbUint("modulus", b.Modulus)
	t.AbsorbUint("universe", b.Universe)
	t.AbsorbBytes("dataset", []byte(b.Dataset))
	t.AbsorbUint("version", b.Version)
	t.AbsorbBytes("query", b.Query.Encode())
	return t
}

// RNG returns the deterministic challenge stream for the binding. A
// verifier constructed with it draws exactly the randomness an
// interactive verifier would have drawn from a secret RNG.
func (b Binding) RNG() field.RNG { return b.Transcript().RNG("challenge") }

// Proof is one recorded prover conversation: the binding, every prover
// message in order, and the transcript digest after absorbing them all.
// The digest is a tamper-evidence checksum — verification replays the
// messages through a real verifier session and recomputes it.
type Proof struct {
	Binding
	Messages []core.Msg
	Digest   [32]byte
}

// Record drives p through one conversation and returns the recorded
// proof. challenges is the verifier's whole schedule — the sum-check
// verifier's Challenges(), built for this binding from b.RNG() — and p
// MUST prove over
// the dataset state at b.Version. No verifier takes part: the schedule
// is fixed by the binding alone, so nothing a verifier could observe
// changes what the prover is asked. The proof is checked where it is
// used, by Verify against a verifier that saw the stream.
func (b Binding) Record(p core.ProverSession, challenges []core.Msg) (*Proof, error) {
	t := b.Transcript()
	msg, err := p.Open()
	if err != nil {
		return nil, err
	}
	t.AbsorbMsg("prover", msg)
	msgs := make([]core.Msg, 1, len(challenges)+1)
	msgs[0] = msg
	for _, ch := range challenges {
		if msg, err = p.Step(ch); err != nil {
			return nil, err
		}
		t.AbsorbMsg("prover", msg)
		msgs = append(msgs, msg)
	}
	return &Proof{Binding: b, Messages: msgs, Digest: t.Digest()}, nil
}

// ErrBinding reports a proof whose header does not match the binding
// the verifier expects — wrong dataset, version, query, or field.
var ErrBinding = errors.New("fs: proof binding mismatch")

// Verify replays the proof against v, which must have been built from
// b.RNG() and must have observed the stream the proof claims to cover.
// It checks (1) the proof's header equals b, (2) the verifier accepts
// every message and finishes exactly at the last one, and (3) the
// recomputed transcript digest equals the recorded one. Any flipped bit
// in the proof fails at least one of the three.
func (b Binding) Verify(pf *Proof, v core.VerifierSession) error {
	if pf.Binding != b {
		return fmt.Errorf("%w: proof is for %q v%d query kind %d", ErrBinding,
			pf.Dataset, pf.Version, pf.Query.Kind)
	}
	if len(pf.Messages) == 0 {
		return fmt.Errorf("%w: empty proof", core.ErrRejected)
	}
	t := b.Transcript()
	t.AbsorbMsg("prover", pf.Messages[0])
	_, done, err := v.Begin(pf.Messages[0])
	for _, msg := range pf.Messages[1:] {
		if err == nil && done {
			return fmt.Errorf("%w: trailing messages after verifier finished", core.ErrRejected)
		}
		if err != nil {
			return err
		}
		t.AbsorbMsg("prover", msg)
		_, done, err = v.Step(msg)
	}
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("%w: proof truncated before verifier finished", core.ErrRejected)
	}
	if t.Digest() != pf.Digest {
		return fmt.Errorf("%w: transcript digest mismatch", core.ErrRejected)
	}
	return nil
}

// Proof codec: a versioned magic, the binding, the message list, and
// the digest, all fixed-width little-endian. The encoding is injective
// and Decode rejects anything Encode cannot produce (bad magic, length
// overflows, trailing bytes), so decode→re-encode is the identity.
var proofMagic = [6]byte{'S', 'I', 'P', 'P', 'F', '1'}

// Codec bounds. A real proof has O(log u · log n) messages of O(1)
// elements; these limits are generous while keeping a hostile length
// field from allocating gigabytes.
const (
	maxProofMessages = 1 << 14
	maxProofWords    = 1 << 22 // total ints+elems across all messages
)

// EncodedSize returns len(p.Encode()) without building it.
func (p *Proof) EncodedSize() int {
	n := len(proofMagic) + 8*3 + 1 + len(p.Dataset) + len(p.Query.Encode()) + 8 + 32
	for _, m := range p.Messages {
		n += 16 + 8*(len(m.Ints)+len(m.Elems))
	}
	return n
}

// Encode serializes the proof.
func (p *Proof) Encode() []byte {
	b := make([]byte, 0, p.EncodedSize())
	b = append(b, proofMagic[:]...)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		b = append(b, w[:]...)
	}
	put(p.Modulus)
	put(p.Universe)
	put(p.Version)
	b = append(b, byte(len(p.Dataset)))
	b = append(b, p.Dataset...)
	b = append(b, p.Query.Encode()...)
	put(uint64(len(p.Messages)))
	for _, m := range p.Messages {
		put(uint64(len(m.Ints)))
		for _, v := range m.Ints {
			put(v)
		}
		put(uint64(len(m.Elems)))
		for _, e := range m.Elems {
			put(uint64(e))
		}
	}
	return append(b, p.Digest[:]...)
}

// DecodeProof parses an encoded proof, rejecting malformed, truncated,
// or oversized input and any trailing bytes.
func DecodeProof(b []byte) (*Proof, error) {
	if len(b) < len(proofMagic) || !bytes.Equal(b[:len(proofMagic)], proofMagic[:]) {
		return nil, errors.New("fs: bad proof magic")
	}
	b = b[len(proofMagic):]
	p := &Proof{}
	need := func(n int) error {
		if len(b) < n {
			return errors.New("fs: proof truncated")
		}
		return nil
	}
	take := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	if err := need(8*3 + 1); err != nil {
		return nil, err
	}
	p.Modulus = take()
	p.Universe = take()
	p.Version = take()
	nameLen := int(b[0])
	b = b[1:]
	if err := need(nameLen); err != nil {
		return nil, err
	}
	p.Dataset = string(b[:nameLen])
	b = b[nameLen:]
	var err error
	if p.Query, b, err = decodeQueryDesc(b); err != nil {
		return nil, err
	}
	if err := need(8); err != nil {
		return nil, err
	}
	nMsgs := take()
	if nMsgs > maxProofMessages {
		return nil, fmt.Errorf("fs: proof claims %d messages (max %d)", nMsgs, maxProofMessages)
	}
	p.Messages = make([]core.Msg, 0, nMsgs)
	words := uint64(0)
	takeVec := func() ([]uint64, error) {
		if err := need(8); err != nil {
			return nil, err
		}
		n := take()
		// Bound n before accumulating: words += n could wrap uint64 and
		// slip past the budget check, and int(n)*8 below must not
		// overflow. After this check n ≤ maxProofWords, so both are safe.
		if n > maxProofWords || words+n > maxProofWords {
			return nil, errors.New("fs: proof word count overflows limit")
		}
		words += n
		if err := need(int(n) * 8); err != nil {
			return nil, err
		}
		vec := make([]uint64, n)
		for i := range vec {
			vec[i] = take()
		}
		return vec, nil
	}
	for i := uint64(0); i < nMsgs; i++ {
		var m core.Msg
		ints, err := takeVec()
		if err != nil {
			return nil, err
		}
		if len(ints) > 0 {
			m.Ints = ints
		}
		elems, err := takeVec()
		if err != nil {
			return nil, err
		}
		if len(elems) > 0 {
			m.Elems = make([]field.Elem, len(elems))
			for j, v := range elems {
				m.Elems[j] = field.Elem(v)
			}
		}
		p.Messages = append(p.Messages, m)
	}
	if err := need(32); err != nil {
		return nil, err
	}
	copy(p.Digest[:], b)
	if len(b) != 32 {
		return nil, errors.New("fs: trailing bytes after proof")
	}
	return p, nil
}
