package store

import (
	"errors"
	"os"
	"path/filepath"
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
		// Formats 1 and 2 are retired: their version bytes are refused like
		// any other unknown format, never parsed with a guessed layout.
		{"retired-format-1", func(b []byte) []byte { b[7] = 1; return b }, ErrVersion},
		{"retired-format-2", func(b []byte) []byte { b[7] = 2; return b }, ErrVersion},
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

// FuzzLoadCheckpoint: Decode must never panic on arbitrary bytes, and
// anything it accepts must re-encode to a decodable checkpoint with the
// same contents.
func FuzzLoadCheckpoint(f *testing.F) {
	good := Encode(sample())
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:headerSize])
	f.Add([]byte{})
	mut := append([]byte(nil), good...)
	mut[7] = 9
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data, 0)
		if err != nil {
			return
		}
		c2, err := Decode(Encode(c), c.Modulus)
		if err != nil {
			t.Fatalf("re-encode of an accepted checkpoint rejected: %v", err)
		}
		if c2.Universe != c.Universe || c2.Modulus != c.Modulus || c2.Total != c.Total ||
			c2.Updates != c.Updates || c2.Version != c.Version || len(c2.Counts) != len(c.Counts) ||
			c2.SliceLo != c.SliceLo || c2.SliceHi != c.SliceHi {
			t.Fatal("re-encode round-trip drifted")
		}
	})
}
