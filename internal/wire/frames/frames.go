// Package frames is the wire protocol's codec layer: frame type
// constants, the length-prefixed frame transport, and the payload
// codecs for every frame the protocol speaks. It owns no policy and no
// state — the layers above it (wire's client, server, and mux, and the
// shard router's proxy) agree on byte layouts exclusively through this
// package, so they can never diverge.
//
// Framing: every frame is [uint32 length][uint8 type][payload], payloads
// little-endian via encoding/binary. Protocol messages (core.Msg) are
// encoded as [uint32 nInts][uint32 nElems][ints…][elems…]. Channel
// frames prefix the payload with a uint32 channel id.
//
// Import seam: only packages under internal/wire/... and the shard
// router (internal/shard/) may import this package — the protocol's
// endpoints and its one intermediary. Everything else speaks through
// wire.Client and wire.Server; internal/archtest's codec-seams rule
// enforces the boundary so codec changes have exactly two audiences.
package frames

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// Frame types. Frames 0x02–0x0b are connection-scoped (the implicit
// control channel); frames 0x0c–0x13 are the channel-scoped
// conversation frames, whose payload begins with a uint32 channel id.
// Frames 0x14–0x17 are the admin plane: dataset handoff for shard
// rebalancing and operational stats.
//
// Types 0x01 and 0x03–0x07 are retired and reserved: they were the
// anonymous per-connection upload (hello, end-stream) and the serial
// conversation (query, prover, challenge, finish) of earlier protocol
// generations. The numbers are never reused; a peer that sends one is
// refused with ErrProtocol like any other unknown type.
const (
	Updates = 0x02 // client→server: batch of (index, delta), acked with OK
	Error   = 0x08 // server→client: connection-fatal error text
	Open    = 0x09 // client→server: attach to named dataset
	OK      = 0x0a // server→client: ack with dataset update count
	Budget  = 0x0b // server→client: admission refused, memory budget exhausted

	QueryCh     = 0x0c // client→server: open conversation channel [ch][query]
	ChallengeCh = 0x0d // client→server: verifier challenge [ch][msg]
	ProverCh    = 0x0e // server→client: prover message [ch][msg]
	FinishCh    = 0x0f // client→server: conversation over [ch]
	ErrorCh     = 0x10 // server→client: channel failed [ch][text]; connection survives
	BudgetCh    = 0x11 // server→client: channel refused, budget/cap exhausted [ch][text]

	ProofReqCh = 0x12 // client→server: fetch the posted proof [ch][version][query]
	ProofCh    = 0x13 // server→client: encoded Fiat–Shamir proof [ch][proof]

	Handoff   = 0x14 // client→server: persist + detach dataset, keep checkpoint [name]
	Adopt     = 0x15 // client→server: recover dataset from the data dir [name]
	StatsReq  = 0x16 // client→server: request operational stats
	StatsResp = 0x17 // server→client: JSON-encoded stats

	// Frames 0x18–0x1a are the split-universe revision: a dataset too
	// large for one engine lives as S universe slices on S shards, and an
	// aggregator (the shard router) folds their partial messages into the
	// unchanged client-facing protocol, and checks every slice's part of
	// a batch before it delivers any.
	OpenSlice      = 0x18 // client→server: attach to a universe slice [globalU][lo][hi][name]
	PartialQueryCh = 0x19 // aggregator→server: open partial-prover channel [ch][query]
	CheckUpdates   = 0x1a // client→server: would the updates frame be applied? acked with OK [Σδ], nothing applied
)

// MaxFrame bounds a single frame (64 MiB) to fail fast on corruption.
const MaxFrame = 64 << 20

// MaxDatasetName bounds the name carried by an open frame.
const MaxDatasetName = 255

// MaxCircuitName bounds the circuit family name a CIRCUIT query frame
// may carry; registry names are short, so anything longer is garbage.
const MaxCircuitName = 64

// ErrProtocol reports a malformed or unexpected frame.
var ErrProtocol = errors.New("wire: protocol error")

// WriteFrame sends one frame: [uint32 length][uint8 type][payload], in
// one Write. Written as two, a reader woken by the header may park again
// for the payload behind it, and whether it does is a race on every
// frame: round trips then swing by tens of percent with the scheduling
// of the code around them.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(Frame(typ, payload))
	return err
}

// Frame lays out one frame, [uint32 length][uint8 type][payload], as
// WriteFrame sends it.
func Frame(typ byte, payload []byte) []byte {
	buf := frameHead(typ, len(payload))
	copy(buf[5:], payload)
	return buf
}

// MsgFrame lays out the channel-scoped frame of a protocol message —
// [uint32 length][uint8 type][uint32 channel id][message] — in one
// buffer: the bytes of WriteFrame(w, typ, EncodeChannel(id,
// EncodeMsg(m))), with the message written once, in place.
func MsgFrame(typ byte, id uint32, m core.Msg) []byte {
	buf := frameHead(typ, 4+msgLen(m))
	binary.LittleEndian.PutUint32(buf[5:9], id)
	putMsg(buf[9:], m)
	return buf
}

// frameHead returns a frame buffer for a payload of n bytes, its length
// and type written.
func frameHead(typ byte, n int) []byte {
	buf := make([]byte, 5+n)
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	buf[4] = typ
	return buf
}

// ReadFrame receives one frame, bounding its size by MaxFrame.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes", ErrProtocol, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return head[4], payload, nil
}

// EncodeMsg lays out a protocol message.
func EncodeMsg(m core.Msg) []byte {
	out := make([]byte, msgLen(m))
	putMsg(out, m)
	return out
}

// msgLen returns the bytes EncodeMsg lays m out in.
func msgLen(m core.Msg) int { return 8 + 8*len(m.Ints) + 8*len(m.Elems) }

// putMsg lays out m in out, msgLen(m) bytes.
func putMsg(out []byte, m core.Msg) {
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(m.Ints)))
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(m.Elems)))
	off := 8
	for _, v := range m.Ints {
		binary.LittleEndian.PutUint64(out[off:], v)
		off += 8
	}
	for _, e := range m.Elems {
		binary.LittleEndian.PutUint64(out[off:], uint64(e))
		off += 8
	}
}

// DecodeMsg parses a protocol message.
func DecodeMsg(b []byte) (core.Msg, error) {
	if len(b) < 8 {
		return core.Msg{}, fmt.Errorf("%w: short message header", ErrProtocol)
	}
	nInts := binary.LittleEndian.Uint32(b[0:4])
	nElems := binary.LittleEndian.Uint32(b[4:8])
	// Bound the section counts before any size arithmetic: on 32-bit
	// platforms a crafted header can overflow `want` (8 + 8*nInts +
	// 8*nElems in int) into a small value, or force a giant allocation
	// before the length check below runs. Nothing legitimate exceeds
	// MaxFrame/8 words per section.
	const maxWords = MaxFrame / 8
	if uint64(nInts) > maxWords || uint64(nElems) > maxWords {
		return core.Msg{}, fmt.Errorf("%w: message header claims %d+%d words", ErrProtocol, nInts, nElems)
	}
	want := 8 + 8*int(nInts) + 8*int(nElems)
	if len(b) != want {
		return core.Msg{}, fmt.Errorf("%w: message body %d bytes, want %d", ErrProtocol, len(b), want)
	}
	var m core.Msg
	off := 8
	if nInts > 0 {
		m.Ints = make([]uint64, nInts)
		for i := range m.Ints {
			m.Ints[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
	}
	if nElems > 0 {
		m.Elems = make([]field.Elem, nElems)
		for i := range m.Elems {
			m.Elems[i] = field.Elem(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
	}
	return m, nil
}

// EncodeQuery lays out a query frame: the fixed numeric parameter block,
// then — for CIRCUIT queries only — the circuit family name in UTF-8.
func EncodeQuery(kind engine.QueryKind, p engine.QueryParams) []byte {
	n := 1 + 8*4
	if kind == engine.QueryCircuit {
		n += len(p.Circuit)
	}
	out := make([]byte, 1+8*4, n)
	out[0] = byte(kind)
	binary.LittleEndian.PutUint64(out[1:], p.A)
	binary.LittleEndian.PutUint64(out[9:], p.B)
	binary.LittleEndian.PutUint64(out[17:], uint64(p.K))
	binary.LittleEndian.PutUint64(out[25:], math.Float64bits(p.Phi))
	if kind == engine.QueryCircuit {
		out = append(out, p.Circuit...)
	}
	return out
}

// DecodeQuery parses a query frame.
func DecodeQuery(b []byte) (engine.QueryKind, engine.QueryParams, error) {
	if len(b) < 1+8*4 {
		return 0, engine.QueryParams{}, fmt.Errorf("%w: query frame %d bytes", ErrProtocol, len(b))
	}
	kind := engine.QueryKind(b[0])
	p := engine.QueryParams{
		A:   binary.LittleEndian.Uint64(b[1:]),
		B:   binary.LittleEndian.Uint64(b[9:]),
		K:   int64(binary.LittleEndian.Uint64(b[17:])),
		Phi: math.Float64frombits(binary.LittleEndian.Uint64(b[25:])),
	}
	name := b[1+8*4:]
	if kind == engine.QueryCircuit {
		if len(name) > MaxCircuitName {
			return 0, engine.QueryParams{}, fmt.Errorf("%w: circuit name of %d bytes", ErrProtocol, len(name))
		}
		// An empty (or unknown) name is refused by the engine with a typed
		// error, not by the codec: the frame itself is well-formed.
		p.Circuit = string(name)
	} else if len(name) != 0 {
		return 0, engine.QueryParams{}, fmt.Errorf("%w: query frame %d bytes", ErrProtocol, len(b))
	}
	return kind, p, nil
}

// EncodeOpen lays out an open frame: the universe size, then the dataset
// name in UTF-8.
func EncodeOpen(name string, u uint64) []byte {
	out := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(out[:8], u)
	copy(out[8:], name)
	return out
}

// DecodeOpen parses an open frame.
func DecodeOpen(b []byte) (name string, u uint64, err error) {
	if len(b) < 9 {
		return "", 0, fmt.Errorf("%w: open frame %d bytes", ErrProtocol, len(b))
	}
	if len(b)-8 > MaxDatasetName {
		return "", 0, fmt.Errorf("%w: dataset name of %d bytes", ErrProtocol, len(b)-8)
	}
	return string(b[8:]), binary.LittleEndian.Uint64(b[:8]), nil
}

// EncodeOpenSlice lays out an open-slice frame: the global universe
// size, the slice bounds [lo, hi) over the padded global universe, then
// the dataset name in UTF-8.
func EncodeOpenSlice(name string, globalU, lo, hi uint64) []byte {
	out := make([]byte, 24+len(name))
	binary.LittleEndian.PutUint64(out[:8], globalU)
	binary.LittleEndian.PutUint64(out[8:16], lo)
	binary.LittleEndian.PutUint64(out[16:24], hi)
	copy(out[24:], name)
	return out
}

// DecodeOpenSlice parses an open-slice frame. Geometry validation
// (power-of-two width, alignment) is the engine's, not the codec's.
func DecodeOpenSlice(b []byte) (name string, globalU, lo, hi uint64, err error) {
	if len(b) < 25 {
		return "", 0, 0, 0, fmt.Errorf("%w: open-slice frame %d bytes", ErrProtocol, len(b))
	}
	if len(b)-24 > MaxDatasetName {
		return "", 0, 0, 0, fmt.Errorf("%w: dataset name of %d bytes", ErrProtocol, len(b)-24)
	}
	return string(b[24:]), binary.LittleEndian.Uint64(b[:8]),
		binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint64(b[16:24]), nil
}

// EncodeCount lays out an OK ack payload (a dataset update count).
func EncodeCount(n uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	return b[:]
}

// DecodeCount parses an OK ack payload.
func DecodeCount(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: count frame %d bytes", ErrProtocol, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// EncodeName lays out a handoff/adopt frame: the dataset name in UTF-8.
func EncodeName(name string) []byte { return []byte(name) }

// DecodeName parses a handoff/adopt frame.
func DecodeName(b []byte) (string, error) {
	if len(b) == 0 || len(b) > MaxDatasetName {
		return "", fmt.Errorf("%w: dataset name of %d bytes", ErrProtocol, len(b))
	}
	return string(b), nil
}

// EncodeUpdates lays out an updates batch as (index, delta) pairs.
func EncodeUpdates(ups []stream.Update) []byte {
	payload := make([]byte, 16*len(ups))
	for i, up := range ups {
		binary.LittleEndian.PutUint64(payload[16*i:], up.Index)
		binary.LittleEndian.PutUint64(payload[16*i+8:], uint64(up.Delta))
	}
	return payload
}

// DecodeUpdateColumns splits an updates payload into index/delta columns,
// the shape the engine's batch kernel ingests directly.
func DecodeUpdateColumns(payload []byte) (idx []uint64, deltas []int64, err error) {
	if len(payload)%16 != 0 {
		return nil, nil, fmt.Errorf("%w: update batch", ErrProtocol)
	}
	n := len(payload) / 16
	idx = make([]uint64, n)
	deltas = make([]int64, n)
	for i := 0; i < n; i++ {
		idx[i] = binary.LittleEndian.Uint64(payload[16*i:])
		deltas[i] = int64(binary.LittleEndian.Uint64(payload[16*i+8:]))
	}
	return idx, deltas, nil
}

// EncodeChannel prefixes a frame payload with its channel id.
func EncodeChannel(id uint32, payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out[:4], id)
	copy(out[4:], payload)
	return out
}

// DecodeChannel splits a channel-scoped payload into id and body.
func DecodeChannel(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: channel frame of %d bytes", ErrProtocol, len(b))
	}
	return binary.LittleEndian.Uint32(b[:4]), b[4:], nil
}

// EncodeProofReq lays out a proof request: the requested dataset
// version (0 = current), then the query block in the query-frame
// layout.
func EncodeProofReq(version uint64, kind engine.QueryKind, p engine.QueryParams) []byte {
	out := make([]byte, 8, 8+1+8*4+len(p.Circuit))
	binary.LittleEndian.PutUint64(out, version)
	return append(out, EncodeQuery(kind, p)...)
}

// DecodeProofReq parses a proof request.
func DecodeProofReq(b []byte) (version uint64, kind engine.QueryKind, p engine.QueryParams, err error) {
	if len(b) < 8 {
		return 0, 0, engine.QueryParams{}, fmt.Errorf("%w: proof request of %d bytes", ErrProtocol, len(b))
	}
	version = binary.LittleEndian.Uint64(b)
	kind, p, err = DecodeQuery(b[8:])
	return version, kind, p, err
}
