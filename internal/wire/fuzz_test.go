package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/wire/frames"
)

// The codec invariants under test: decoders never panic on arbitrary
// bytes, a successful decode re-encodes to the identical bytes (the
// formats have no slack), and encode→decode is the identity.

func FuzzDecodeMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames.EncodeMsg(core.Msg{}))
	f.Add(frames.EncodeMsg(core.Msg{Ints: []uint64{1, 2}, Elems: []field.Elem{3}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// Overflow corpus: headers whose 8 + 8*nInts + 8*nElems wraps a
	// 32-bit int. On 32-bit platforms these used to slip past the length
	// check into a giant allocation; they must be refused by the word
	// bound before any size arithmetic.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00}) // nInts just past frames.MaxFrame/8
	f.Add([]byte{0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x80, 0x00}) // both sections at the bound
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := frames.DecodeMsg(b)
		if err != nil {
			return
		}
		if len(m.Ints) > frames.MaxFrame/8 || len(m.Elems) > frames.MaxFrame/8 {
			t.Fatalf("frames.DecodeMsg accepted %d+%d words, past the frame bound", len(m.Ints), len(m.Elems))
		}
		if got := frames.EncodeMsg(m); !bytes.Equal(got, b) {
			t.Fatalf("re-encode of a valid message differs: %x vs %x", got, b)
		}
	})
}

// TestDecodeMsgHeaderOverflow pins the satellite bugfix: a header whose
// claimed section sizes would overflow the int arithmetic (or demand a
// multi-GiB allocation) is rejected up front, whatever the platform's
// int width.
func TestDecodeMsgHeaderOverflow(t *testing.T) {
	cases := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // 2^32-1 of each
		{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}, // nInts = 2^32-1
		{0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff}, // nElems = 2^32-1
		{0x01, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00}, // nInts = frames.MaxFrame/8 + 1
	}
	for _, b := range cases {
		if _, err := frames.DecodeMsg(b); err == nil {
			t.Errorf("frames.DecodeMsg accepted a header claiming %x words", b)
		}
	}
	// At the bound the header is structurally fine and only the length
	// check applies — it must fail on length, not panic or allocate.
	atBound := []byte{0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00}
	if _, err := frames.DecodeMsg(atBound); err == nil {
		t.Error("frames.DecodeMsg accepted a bound-sized header with no body")
	}
}

// FuzzDecodeChannel covers the mux revision's channel-id framing: the
// decoder never panics, and a successful decode re-encodes identically.
func FuzzDecodeChannel(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames.EncodeChannel(0, nil))
	f.Add(frames.EncodeChannel(1, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})))
	f.Add(frames.EncodeChannel(^uint32(0), frames.EncodeMsg(core.Msg{Ints: []uint64{7}})))
	f.Fuzz(func(t *testing.T, b []byte) {
		id, rest, err := frames.DecodeChannel(b)
		if err != nil {
			return
		}
		if got := frames.EncodeChannel(id, rest); !bytes.Equal(got, b) {
			t.Fatalf("re-encode of a valid channel frame differs: %x vs %x", got, b)
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames.EncodeQuery(QuerySelfJoinSize, QueryParams{}))
	f.Add(frames.EncodeQuery(QueryHeavyHitters, QueryParams{A: 1, B: 2, K: -3, Phi: 0.5}))
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, params, err := frames.DecodeQuery(b)
		if err != nil {
			return
		}
		if got := frames.EncodeQuery(kind, params); !bytes.Equal(got, b) {
			t.Fatalf("re-encode of a valid query differs: %x vs %x", got, b)
		}
	})
}

// FuzzDecodeCircuitQuery targets the only variable-length query frame:
// CIRCUIT frames with a trailing family name. Decode must never panic,
// must refuse names past frames.MaxCircuitName and trailing bytes on fixed
// kinds, and a successful decode must re-encode byte-identically.
func FuzzDecodeCircuitQuery(f *testing.F) {
	f.Add(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: "F2"}))
	f.Add(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: "MATMUL", A: 16}))
	f.Add(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: ""}))
	f.Add(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: string(make([]byte, frames.MaxCircuitName))}))
	f.Add(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: string(make([]byte, frames.MaxCircuitName+1))}))
	f.Add(append(frames.EncodeQuery(QuerySelfJoinSize, QueryParams{}), 'X'))
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, params, err := frames.DecodeQuery(b)
		if err != nil {
			return
		}
		if kind == QueryCircuit && len(params.Circuit) > frames.MaxCircuitName {
			t.Fatalf("frames.DecodeQuery accepted a %d-byte circuit name", len(params.Circuit))
		}
		if kind != QueryCircuit && params.Circuit != "" {
			t.Fatalf("frames.DecodeQuery produced a circuit name for kind %d", kind)
		}
		if got := frames.EncodeQuery(kind, params); !bytes.Equal(got, b) {
			t.Fatalf("re-encode of a valid query differs: %x vs %x", got, b)
		}
	})
}

func FuzzDecodeOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames.EncodeOpen("d", 64))
	f.Add(frames.EncodeOpen("a-long-dataset-name", 1<<20))
	f.Fuzz(func(t *testing.T, b []byte) {
		name, u, err := frames.DecodeOpen(b)
		if err != nil {
			return
		}
		if len(name) == 0 || len(name) > frames.MaxDatasetName {
			t.Fatalf("frames.DecodeOpen accepted a %d-byte name", len(name))
		}
		if got := frames.EncodeOpen(name, u); !bytes.Equal(got, b) {
			t.Fatalf("re-encode of a valid open frame differs: %x vs %x", got, b)
		}
	})
}

// TestMsgPropertyRoundTrip drives the message codec with generated
// shapes, including empty and large sections.
func TestMsgPropertyRoundTrip(t *testing.T) {
	rng := field.NewSplitMix64(123)
	for trial := 0; trial < 200; trial++ {
		nInts := int(rng.Uint64() % 17)
		nElems := int(rng.Uint64() % 17)
		var m core.Msg
		for i := 0; i < nInts; i++ {
			m.Ints = append(m.Ints, rng.Uint64())
		}
		for i := 0; i < nElems; i++ {
			m.Elems = append(m.Elems, field.Elem(rng.Uint64()))
		}
		got, err := frames.DecodeMsg(frames.EncodeMsg(m))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Ints) != nInts || len(got.Elems) != nElems {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for i := range m.Ints {
			if got.Ints[i] != m.Ints[i] {
				t.Fatalf("trial %d: int %d", trial, i)
			}
		}
		for i := range m.Elems {
			if got.Elems[i] != m.Elems[i] {
				t.Fatalf("trial %d: elem %d", trial, i)
			}
		}
	}
}

// TestQueryPropertyRoundTrip covers every kind and awkward parameter
// values (negative K, tiny and non-finite Phi).
func TestQueryPropertyRoundTrip(t *testing.T) {
	kinds := []QueryKind{
		QuerySelfJoinSize, QueryFk, QueryRangeSum, QueryRangeQuery,
		QueryIndex, QueryDictionary, QueryPredecessor, QuerySuccessor,
		QueryKLargest, QueryHeavyHitters, QueryF0, QueryFmax,
	}
	phis := []float64{0, 0.001, 0.5, 1, math.SmallestNonzeroFloat64, math.Inf(1)}
	rng := field.NewSplitMix64(321)
	for _, kind := range kinds {
		for _, phi := range phis {
			p := QueryParams{A: rng.Uint64(), B: rng.Uint64(), K: -int64(rng.Uint64() % 100), Phi: phi}
			gk, gp, err := frames.DecodeQuery(frames.EncodeQuery(kind, p))
			if err != nil {
				t.Fatal(err)
			}
			if gk != kind || gp != p {
				t.Fatalf("roundtrip %v %+v = %v %+v", kind, p, gk, gp)
			}
		}
	}
	// CIRCUIT frames carry the only variable-length section.
	names := []string{"", "F2", "COUNT", "MATMUL", strings.Repeat("y", frames.MaxCircuitName)}
	for _, name := range names {
		p := QueryParams{A: rng.Uint64(), Circuit: name}
		gk, gp, err := frames.DecodeQuery(frames.EncodeQuery(QueryCircuit, p))
		if err != nil {
			t.Fatal(err)
		}
		if gk != QueryCircuit || gp != p {
			t.Fatalf("circuit roundtrip %+v = %v %+v", p, gk, gp)
		}
	}
	if _, _, err := frames.DecodeQuery(frames.EncodeQuery(QueryCircuit, QueryParams{Circuit: strings.Repeat("y", frames.MaxCircuitName+1)})); err == nil {
		t.Error("oversize circuit name decoded")
	}
	if _, _, err := frames.DecodeQuery(append(frames.EncodeQuery(QueryIndex, QueryParams{A: 4}), 'Z')); err == nil {
		t.Error("trailing bytes on a fixed-kind query decoded")
	}
}

// TestOpenRoundTrip covers the v2 open frame and the count ack.
func TestOpenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    uint64
	}{
		{"a", 1},
		{"metrics", 1 << 20},
		{"日本語-dataset", 1 << 61},
	} {
		name, u, err := frames.DecodeOpen(frames.EncodeOpen(tc.name, tc.u))
		if err != nil {
			t.Fatal(err)
		}
		if name != tc.name || u != tc.u {
			t.Fatalf("roundtrip (%q,%d) = (%q,%d)", tc.name, tc.u, name, u)
		}
	}
	if _, _, err := frames.DecodeOpen(frames.EncodeCount(7)); err == nil {
		t.Error("open frame with no name accepted")
	}
	for _, n := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, err := frames.DecodeCount(frames.EncodeCount(n))
		if err != nil || got != n {
			t.Fatalf("count roundtrip %d = %d, %v", n, got, err)
		}
	}
	if _, err := frames.DecodeCount([]byte{1, 2}); err == nil {
		t.Error("short count frame accepted")
	}
}
