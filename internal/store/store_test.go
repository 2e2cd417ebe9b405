package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

func sample() *Checkpoint {
	counts := make([]int64, 16)
	for i := range counts {
		counts[i] = int64(i*i) - 7
	}
	return &Checkpoint{
		Universe: 13,
		Modulus:  (1 << 61) - 1,
		Total:    1234,
		Updates:  99,
		Version:  17,
		Counts:   counts,
	}
}

func sameCheckpoint(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Universe != want.Universe || got.Modulus != want.Modulus ||
		got.Total != want.Total || got.Updates != want.Updates ||
		got.Version != want.Version {
		t.Fatalf("header round-trip: got %+v, want %+v", got, want)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("counts length %d, want %d", len(got.Counts), len(want.Counts))
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

// TestSaveLoadRoundTrip: save→load is exact, through the filesystem.
func TestSaveLoadRoundTrip(t *testing.T) {
	want := sample()
	path := filepath.Join(t.TempDir(), "ds.ckpt")
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, want.Modulus)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, want)
	// A second save over the same path replaces it atomically.
	want.Counts[3] = 42
	want.Updates++
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path, want.Modulus)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, want)
	// No stray temporaries left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("checkpoint dir holds %d files, want 1", len(ents))
	}
}

// TestLoadRejections: every class of damaged file is refused with its
// typed error, never a panic.
func TestLoadRejections(t *testing.T) {
	good := Encode(sample())
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrCorrupt},
		{"short-header", func(b []byte) []byte { return b[:20] }, ErrCorrupt},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-9] }, ErrCorrupt},
		{"truncated-crc", func(b []byte) []byte { return b[:len(b)-1] }, ErrCorrupt},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xee) }, ErrCorrupt},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCorrupt},
		{"flipped-count-bit", func(b []byte) []byte { b[headerSize+5] ^= 1; return b }, ErrCorrupt},
		{"flipped-header-bit", func(b []byte) []byte { b[9] ^= 1; return b }, ErrCorrupt},
		{"version-bump", func(b []byte) []byte { b[7] = version + 1; return b }, ErrVersion},
		// Formats 1 to 3 are retired: their version bytes are refused like
		// any other unknown format, never parsed with a guessed layout.
		{"retired-format-1", func(b []byte) []byte { b[7] = 1; return b }, ErrVersion},
		{"retired-format-2", func(b []byte) []byte { b[7] = 2; return b }, ErrVersion},
		{"retired-format-3", func(b []byte) []byte { b[7] = 3; return b }, ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mangle(append([]byte(nil), good...))
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, 0); !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLoadWrongModulus: a checkpoint taken under another field is
// structurally valid but semantically foreign.
func TestLoadWrongModulus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, 2147483647); !errors.Is(err, ErrModulus) {
		t.Fatalf("Load under a foreign field = %v, want ErrModulus", err)
	}
	// wantModulus = 0 skips the check (the caller inspects the field).
	if _, err := Load(path, 0); err != nil {
		t.Fatalf("Load with modulus check disabled: %v", err)
	}
}

// TestLoadMissingFile: absence is an fs error, not a corruption error.
func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"), 0)
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of a missing file = %v, want a plain fs error", err)
	}
	if !os.IsNotExist(err) {
		t.Fatalf("Load of a missing file = %v, want os.IsNotExist", err)
	}
}

// TestDecodeCountsLengthMismatch: a header advertising more counts than
// the body holds must not over-allocate or over-read.
func TestDecodeCountsLengthMismatch(t *testing.T) {
	b := Encode(sample())
	// Rewrite nCounts to a huge value and re-stamp nothing: the CRC check
	// fires first; then hand-craft a version where the CRC is "valid" to
	// reach the length check.
	if _, err := Decode(b[:headerSize+crcSize], 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("body/count mismatch accepted: %v", err)
	}
}

// TestSliceRoundTrip: a slice checkpoint — counts covering only
// [SliceLo, SliceHi) of a larger universe — survives save→load, and
// malformed slice geometry is refused typed.
func TestSliceRoundTrip(t *testing.T) {
	counts := make([]int64, 8)
	for i := range counts {
		counts[i] = int64(3*i) - 5
	}
	want := &Checkpoint{
		Universe: 29, // padded global universe is 32; this slice owns [8,16)
		Modulus:  (1 << 61) - 1,
		Total:    77,
		Updates:  12,
		Version:  5,
		SliceLo:  8,
		SliceHi:  16,
		Counts:   counts,
	}
	path := filepath.Join(t.TempDir(), "slice.ckpt")
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, want.Modulus)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Slice() || got.SliceLo != 8 || got.SliceHi != 16 {
		t.Fatalf("slice bounds = [%d,%d), want [8,16)", got.SliceLo, got.SliceHi)
	}
	sameCheckpoint(t, got, want)

	bad := []struct {
		name   string
		mangle func(*Checkpoint)
	}{
		{"width-mismatch", func(c *Checkpoint) { c.SliceHi = 24 }},
		{"empty-slice", func(c *Checkpoint) { c.SliceLo, c.SliceHi, c.Counts = 16, 16, nil }},
		{"unaligned", func(c *Checkpoint) { c.SliceLo, c.SliceHi = 4, 12 }},
		{"width-one", func(c *Checkpoint) { c.SliceLo, c.SliceHi, c.Counts = 8, 9, counts[:1] }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			c := *want
			c.Counts = append([]int64(nil), want.Counts...)
			tc.mangle(&c)
			if _, err := Decode(Encode(&c), 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode of a %s slice = %v, want ErrCorrupt", tc.name, err)
			}
		})
	}
}

// FuzzLoadCheckpoint: DecodeChunks must never panic on arbitrary bytes,
// and anything it accepts is the one encoding of its table — it
// re-encodes, from chunks and from the flat Decode alike, to the same
// bytes.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, c := range []*Checkpoint{
		{Universe: 1 << 14, Modulus: (1 << 61) - 1, Entries: 1 << 14}, // empty
		table(1<<14, map[int]int64{3: 1, 5000: -2, 5001: 7}),          // sparse
		sample(), // dense
		mixed(),
	} {
		good := Encode(c)
		f.Add(good)
		f.Add(good[:len(good)-3])
		mut := append([]byte(nil), good...)
		mut[7] = 3
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunks(data, 0)
		if err != nil {
			return
		}
		if got := Encode(c); !bytes.Equal(got, data) {
			t.Fatalf("accepted bytes re-encode differently:\n%x\n%x", data, got)
		}
		if c.Entries > 1<<16 {
			return // the flat shape allocates the declared table
		}
		flat, err := Decode(data, 0)
		if err != nil {
			t.Fatalf("Decode refuses what DecodeChunks accepts: %v", err)
		}
		if got := Encode(flat); !bytes.Equal(got, data) {
			t.Fatal("the flat decoding re-encodes differently")
		}
	})
}

// table returns a whole-universe checkpoint of n flat counts holding
// live.
func table(n int, live map[int]int64) *Checkpoint {
	counts := make([]int64, n)
	for i, v := range live {
		counts[i] = v
	}
	return &Checkpoint{Universe: uint64(n), Modulus: (1 << 61) - 1, Total: 5, Updates: 9, Version: 2, Counts: counts}
}

// mixed is a four-chunk table: chunk 0 sparse at the quarter rule's
// boundary, chunk 1 all zero, chunk 2 dense one entry past it, chunk 3
// holding one entry.
func mixed() *Checkpoint {
	w := 1 << ChunkShift
	live := map[int]int64{}
	for j := 0; j < w/4; j++ {
		live[4*j+1] = int64(j) - 100
	}
	for j := 0; j <= w/4; j++ {
		live[2*w+3*j] = int64(j) + 1
	}
	live[4*w-1] = -1
	return table(4*w, live)
}

// chunked returns c's flat counts as Chunks, listing a chunk of zeros
// only when listZeros.
func chunked(c *Checkpoint, listZeros bool) *Checkpoint {
	out := *c
	out.Counts, out.Entries = nil, uint64(len(c.Counts))
	for _, ch := range Chunks(c.Counts) {
		if listZeros || nonZero(ch.Counts) > 0 {
			out.Chunks = append(out.Chunks, ch)
		}
	}
	return &out
}

// TestChunksEncodeAsCounts: a checkpoint whose counts are held in
// chunks — a chunk of zeros listed or not — encodes to exactly the bytes
// of the same counts held flat; Decode reads them back flat and
// DecodeChunks as the chunks holding a non-zero count.
func TestChunksEncodeAsCounts(t *testing.T) {
	flat := mixed()
	want := Encode(flat)
	for _, listZeros := range []bool{false, true} {
		if got := Encode(chunked(flat, listZeros)); !bytes.Equal(got, want) {
			t.Fatalf("chunked encoding (zeros listed: %v) differs from the flat one", listZeros)
		}
	}
	got, err := Decode(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, flat)
	if got.Chunks != nil {
		t.Fatal("Decode filled Chunks")
	}
	ch, err := DecodeChunks(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Counts != nil || ch.Entries != uint64(len(flat.Counts)) {
		t.Fatalf("DecodeChunks: Counts %v, Entries %d", ch.Counts != nil, ch.Entries)
	}
	wantChunks := chunked(flat, false).Chunks
	if len(ch.Chunks) != len(wantChunks) {
		t.Fatalf("DecodeChunks listed %d chunks, want %d", len(ch.Chunks), len(wantChunks))
	}
	for i, c := range ch.Chunks {
		if c.Index != wantChunks[i].Index || !slices.Equal(expand(c, len(wantChunks[i].Counts)), wantChunks[i].Counts) {
			t.Fatalf("chunk %d: got index %d, want %d (or counts differ)", i, c.Index, wantChunks[i].Index)
		}
	}
}

// expand returns c's w counts, whatever its form.
func expand(c Chunk, w int) []int64 {
	if c.Offsets == nil {
		return c.Counts
	}
	out := make([]int64, w)
	for j, o := range c.Offsets {
		out[o] = c.Counts[j]
	}
	return out
}

// sparseOf returns counts in the sparse form: its non-zero entries and
// their offsets.
func sparseOf(counts []int64) ([]uint16, []int64) {
	offs, vals := []uint16{}, []int64(nil)
	for j, v := range counts {
		if v != 0 {
			offs, vals = append(offs, uint16(j)), append(vals, v)
		}
	}
	return offs, vals
}

// TestSparseChunksEncodeAsCounts: a table mixing nil, sparse and dense
// chunks — each sparse one held as its listed counts, one of them
// listing more than a sparse record holds — encodes to exactly the bytes
// of the same counts held flat, and DecodeChunks reads it back as the
// same counts, each chunk sparse just when it holds at most MaxSparse
// counts, with its largest |count| as its Peak.
func TestSparseChunksEncodeAsCounts(t *testing.T) {
	w := 1 << ChunkShift
	live := map[int]int64{}
	for j := 0; j < MaxSparse(uint64(w)); j++ { // chunk 0: sparse at the bound
		live[7*j+2] = int64(j) - 50
	}
	live[w+5] = math.MinInt64                    // chunk 1: one count; chunk 2 all zero
	for j := 0; j <= MaxSparse(uint64(w)); j++ { // chunk 3: one past the bound
		live[3*w+5*j] = int64(j) + 1
	}
	for j := 0; j <= w/4; j++ { // chunk 4: a dense record
		live[4*w+3*j] = -int64(j) - 1
	}
	for j := 0; j < w/2; j++ { // chunk 5: a dense record, held dense
		live[5*w+2*j+1] = int64(j) + 3
	}
	live[7*w-1] = 9 // chunk 6: the last entry
	flat := table(7*w, live)
	want := Encode(flat)
	mixedForms := chunked(flat, true)
	for i, c := range mixedForms.Chunks {
		if i != 5 {
			mixedForms.Chunks[i].Offsets, mixedForms.Chunks[i].Counts = sparseOf(c.Counts)
		}
	}
	if got := Encode(mixedForms); !bytes.Equal(got, want) {
		t.Fatal("the mixed-form encoding differs from the flat one")
	}
	ch, err := DecodeChunks(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(ch), want) {
		t.Fatal("the chunk decoding re-encodes differently")
	}
	var listed []uint64
	for _, c := range ch.Chunks {
		listed = append(listed, c.Index)
		counts := flat.Counts[int(c.Index)*w : int(c.Index+1)*w]
		if !slices.Equal(expand(c, w), counts) {
			t.Fatalf("chunk %d: counts differ", c.Index)
		}
		var peak uint64
		for _, v := range counts {
			peak = max(peak, magnitude(v))
		}
		if c.Peak != peak {
			t.Fatalf("chunk %d: peak %d, want %d", c.Index, c.Peak, peak)
		}
		if sparse := nonZero(counts) <= MaxSparse(uint64(w)); (c.Offsets != nil) != sparse || sparse && len(c.Counts) != nonZero(counts) {
			t.Fatalf("chunk %d: %d listed of %d live, sparse %v", c.Index, len(c.Counts), nonZero(counts), c.Offsets != nil)
		}
	}
	if !slices.Equal(listed, []uint64{0, 1, 3, 4, 5, 6}) {
		t.Fatalf("DecodeChunks listed chunks %v", listed)
	}
}

// TestChunkRecordsRoundTrip: empty, sparse and dense chunks round-trip
// in both shapes, and each costs what the format says: nothing, one
// pair per live entry up to a quarter of the chunk, and the whole chunk
// past it.
func TestChunkRecordsRoundTrip(t *testing.T) {
	w := 1 << ChunkShift
	spread := func(live int) map[int]int64 {
		m := map[int]int64{}
		for j := 0; j < live; j++ {
			m[j*(w/live)] = int64(2*(j%7) - 5) // odd, so never zero
		}
		return m
	}
	empty := headerSize + crcSize
	cases := []struct {
		name string
		live map[int]int64
		size int
	}{
		{"empty", nil, empty},
		{"one", spread(1), empty + recordHead + pairSize},
		{"quarter", spread(w / 4), empty + recordHead + pairSize*w/4},
		{"quarter+1", spread(w/4 + 1), empty + recordHead + 8*w},
		{"full", spread(w), empty + recordHead + 8*w},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := table(w, tc.live)
			b := Encode(want)
			if len(b) != tc.size {
				t.Fatalf("encoded %d bytes, want %d", len(b), tc.size)
			}
			got, err := Decode(b, want.Modulus)
			if err != nil {
				t.Fatal(err)
			}
			sameCheckpoint(t, got, want)
			ch, err := DecodeChunks(b, want.Modulus)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Encode(ch), b) {
				t.Fatal("the chunk decoding re-encodes differently")
			}
			if (len(ch.Chunks) == 0) != (len(tc.live) == 0) {
				t.Fatalf("%d chunks listed for %d live entries", len(ch.Chunks), len(tc.live))
			}
		})
	}
}

// TestEveryTruncationCorrupt: a format-4 file cut at any offset is
// ErrCorrupt, never a short table.
func TestEveryTruncationCorrupt(t *testing.T) {
	b := Encode(mixed())
	for k := 0; k < len(b); k++ {
		if _, err := Decode(b[:k], 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of the first %d of %d bytes = %v, want ErrCorrupt", k, len(b), err)
		}
		if _, err := DecodeChunks(b[:k], 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeChunks of the first %d of %d bytes = %v, want ErrCorrupt", k, len(b), err)
		}
	}
}

// sealed is a file of header fields universe..chunkLen and raw records,
// with a valid checksum.
func sealed(fields [9]uint64, records []byte) []byte {
	b := append([]byte(nil), magic[:]...)
	for _, x := range fields {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	b = append(b, records...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// record lays out a record's head: chunk k and its live count.
func record(k uint64, live uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, k)
	return binary.LittleEndian.AppendUint32(b, live)
}

// pair lays out one sparse (offset, count) pair.
func pair(j uint16, v int64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, j), uint64(v))
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestNonCanonicalRecordsRefused: each table has one encoding. A record
// out of chunk order or past the table, an empty or miscounted chunk,
// and a sparse record with unordered, repeated or out-of-range offsets,
// a zero count, or more than w/4 entries are all ErrCorrupt, as is a
// chunk length other than the format's.
func TestNonCanonicalRecordsRefused(t *testing.T) {
	const n, w = 4 << ChunkShift, 1 << ChunkShift
	hdr := [9]uint64{n, (1 << 61) - 1, 0, 0, 0, 0, 0, n, w}
	dense := make([]byte, 0, 8*w)
	for j := 0; j < w; j++ {
		dense = binary.LittleEndian.AppendUint64(dense, 1)
	}
	tooMany := record(0, w/4+1)
	for j := 0; j <= w/4; j++ {
		tooMany = append(tooMany, pair(uint16(j), 1)...)
	}
	good := cat(record(1, 2), pair(3, 5), pair(9, -5), record(2, w), dense)
	if _, err := DecodeChunks(sealed(hdr, good), 0); err != nil {
		t.Fatalf("the well-formed file is refused: %v", err)
	}
	cases := map[string][]byte{
		"unordered-offsets": cat(record(1, 2), pair(9, 5), pair(3, -5)),
		"repeated-offset":   cat(record(1, 2), pair(3, 5), pair(3, -5)),
		"offset-past-chunk": cat(record(1, 1), pair(w, 5)),
		"zero-count":        cat(record(1, 2), pair(3, 5), pair(9, 0)),
		"sparse-past-w/4":   tooMany,
		"no-live-entries":   record(1, 0),
		"live-past-w":       cat(record(1, w+1), dense),
		"dense-miscounted":  cat(record(2, w-1), dense),
		"repeated-chunk":    cat(record(1, 1), pair(3, 5), record(1, 1), pair(4, 5)),
		"unordered-chunks":  cat(record(2, 1), pair(3, 5), record(1, 1), pair(4, 5)),
		"chunk-past-table":  cat(record(n/w, 1), pair(3, 5)),
		"trailing-bytes":    cat(good, []byte{0}),
	}
	for name, records := range cases {
		t.Run(name, func(t *testing.T) {
			b := sealed(hdr, records)
			if _, err := DecodeChunks(b, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeChunks = %v, want ErrCorrupt", err)
			}
			if _, err := Decode(b, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
		})
	}
	for _, cl := range []uint64{0, w / 2, 2 * w, n} {
		h := hdr
		h[8] = cl
		if _, err := DecodeChunks(sealed(h, nil), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("chunk length %d: DecodeChunks = %v, want ErrCorrupt", cl, err)
		}
	}
	h := hdr
	h[0], h[7] = n+w/2, n+w/2 // not a whole number of chunks
	if _, err := DecodeChunks(sealed(h, nil), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a ragged table: DecodeChunks = %v, want ErrCorrupt", err)
	}
}

// TestSparseTableIsSmall: 1 024 live entries at u = 2^18 encode below
// 64 KiB, where the dense table is 2 MiB.
func TestSparseTableIsSmall(t *testing.T) {
	const u = 1 << 18
	live := map[int]int64{}
	for j := 0; j < 1024; j++ {
		live[(j*2654435761)%u] = int64(j) + 1
	}
	if got := len(Encode(table(u, live))); got >= 64<<10 {
		t.Fatalf("1024 live entries at u = 2^18 encode to %d bytes", got)
	}
}

// TestDecodeChunksAllocation: a file of b bytes allocates O(b) plus at
// most one chunk per record — however large a table its header
// declares.
func TestDecodeChunksAllocation(t *testing.T) {
	const n, w = 1 << 40, 1 << ChunkShift
	var records []byte
	for k := uint64(0); k < 8; k++ {
		records = append(records, cat(record(k*1000, 1), pair(uint16(k), 7))...)
	}
	for _, b := range [][]byte{
		sealed([9]uint64{n, (1 << 61) - 1, 0, 0, 0, 0, 0, n, w}, nil),
		sealed([9]uint64{n, (1 << 61) - 1, 0, 0, 0, 0, 0, n, w}, records),
	} {
		c, err := DecodeChunks(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := 8*len(b) + len(c.Chunks)*8*w + 1024
		if got := allocated(func() { _, _ = DecodeChunks(b, 0) }); got > uint64(bound) {
			t.Fatalf("a %d-byte file with %d records allocated %d bytes, bound %d", len(b), len(c.Chunks), got, bound)
		}
	}
	// The flat shape refuses, typed, a table no slice can hold.
	const huge = 1 << 61
	if _, err := Decode(sealed([9]uint64{huge, (1 << 61) - 1, 0, 0, 0, 0, 0, huge, w}, nil), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of a 2^61-entry table = %v, want ErrCorrupt", err)
	}
}

// allocated returns the bytes fn allocates: the least of several runs,
// since TotalAlloc is the process's and an allocation elsewhere — a
// parallel test, the runtime — can only add to a run's count.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
