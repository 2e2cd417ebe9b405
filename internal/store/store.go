// Package store is the durable checkpoint codec of the dataset engine.
//
// A checkpoint serializes the aggregate state a dataset's provers are
// built from — the dense count vector, Σδ, the ingested-update count,
// the universe size, and the field modulus — into one self-describing,
// checksummed file. The field image (elems) is deliberately not stored:
// it is a deterministic function of the counts (FromInt64 per entry), so
// rehydration recomputes it, halving the file and making it impossible
// for the two tables to disagree on disk.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "SIPCKPT" + version byte
//	universe uint64   universe size as requested at dataset creation
//	modulus  uint64   field modulus the counts were ingested under
//	total    int64    Σδ over the ingested stream
//	updates  uint64   number of stream updates ingested
//	version  uint64   dataset version (ingest batches applied)
//	sliceLo  uint64   slice lower bound in the padded universe
//	sliceHi  uint64   slice upper bound (0 = whole-universe dataset)
//	nCounts  uint64   table length: ℓ^d ≥ universe, or sliceHi−sliceLo
//	counts   nCounts × int64
//	crc      uint32   CRC-32C over everything above
//
// A *slice* checkpoint (sliceHi > 0) is a dataset owning only the index
// range [sliceLo, sliceHi) of a split universe: universe still records
// the *global* universe size (the protocols are parameterized by it),
// while counts holds only the slice's sliceHi−sliceLo entries. For
// whole-universe checkpoints both slice fields are zero.
//
// This is format 3, the only one this build reads or writes; the version
// byte of any other format is refused with ErrVersion.
//
// Save is atomic: the bytes are written to a temporary file in the
// destination directory, synced, and renamed over the target, so a crash
// mid-save leaves the previous checkpoint intact. Load rejects
// truncated, corrupt, version-bumped, and foreign-field files with the
// typed errors ErrCorrupt, ErrVersion, and ErrModulus — a recovery scan
// must never panic or silently accept a damaged table.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// magic identifies a checkpoint file; the trailing byte is the format
// version.
var magic = [8]byte{'S', 'I', 'P', 'C', 'K', 'P', 'T', version}

// version is the checkpoint format version.
const version = 3

// headerSize is the fixed prefix before the counts: magic + eight
// uint64 fields.
const headerSize = 8 + 8*8

// crcSize is the trailing CRC-32C.
const crcSize = 4

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed load failures. Callers distinguish them with errors.Is.
var (
	// ErrCorrupt reports a truncated, mangled, or checksum-failing file.
	ErrCorrupt = errors.New("store: corrupt checkpoint")
	// ErrVersion reports a checkpoint written by an unknown format version.
	ErrVersion = errors.New("store: unsupported checkpoint version")
	// ErrModulus reports a checkpoint taken under a different field — its
	// counts are not meaningful in the caller's field.
	ErrModulus = errors.New("store: checkpoint field modulus mismatch")
)

// Checkpoint is the durable state of one dataset.
type Checkpoint struct {
	Universe uint64  // global universe size as requested at creation (pre-padding)
	Modulus  uint64  // field modulus the dataset was ingested under
	Total    int64   // Σδ over the ingested stream
	Updates  uint64  // stream updates ingested
	Version  uint64  // dataset version: ingest batches applied (see package doc)
	SliceLo  uint64  // slice lower bound in the padded universe (0 for whole datasets)
	SliceHi  uint64  // slice upper bound; 0 means a whole-universe dataset
	Counts   []int64 // dense frequency vector: padded to ℓ^d ≥ Universe, or the slice's width
}

// Slice reports whether the checkpoint holds a universe slice rather
// than a whole dataset.
func (c *Checkpoint) Slice() bool { return c.SliceHi != 0 }

// Encode serializes the checkpoint.
func Encode(c *Checkpoint) []byte {
	out := make([]byte, headerSize+8*len(c.Counts)+crcSize)
	copy(out[:8], magic[:])
	binary.LittleEndian.PutUint64(out[8:], c.Universe)
	binary.LittleEndian.PutUint64(out[16:], c.Modulus)
	binary.LittleEndian.PutUint64(out[24:], uint64(c.Total))
	binary.LittleEndian.PutUint64(out[32:], c.Updates)
	binary.LittleEndian.PutUint64(out[40:], c.Version)
	binary.LittleEndian.PutUint64(out[48:], c.SliceLo)
	binary.LittleEndian.PutUint64(out[56:], c.SliceHi)
	binary.LittleEndian.PutUint64(out[64:], uint64(len(c.Counts)))
	off := headerSize
	for _, v := range c.Counts {
		binary.LittleEndian.PutUint64(out[off:], uint64(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(out[off:], crc32.Checksum(out[:off], castagnoli))
	return out
}

// Decode parses a checkpoint, verifying structure and checksum. A
// non-zero wantModulus additionally requires the checkpoint's field to
// match (ErrModulus otherwise). Decode never allocates more than the
// input's own size, so it is safe on untrusted bytes.
func Decode(b []byte, wantModulus uint64) (*Checkpoint, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(b), headerSize+crcSize)
	}
	if [7]byte(b[:7]) != [7]byte(magic[:7]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if b[7] != version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, b[7], version)
	}
	if len(b) < headerSize+crcSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(b), headerSize+crcSize)
	}
	body, crc := b[:len(b)-crcSize], binary.LittleEndian.Uint32(b[len(b)-crcSize:])
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, crc)
	}
	c := &Checkpoint{
		Universe: binary.LittleEndian.Uint64(b[8:]),
		Modulus:  binary.LittleEndian.Uint64(b[16:]),
		Total:    int64(binary.LittleEndian.Uint64(b[24:])),
		Updates:  binary.LittleEndian.Uint64(b[32:]),
		Version:  binary.LittleEndian.Uint64(b[40:]),
		SliceLo:  binary.LittleEndian.Uint64(b[48:]),
		SliceHi:  binary.LittleEndian.Uint64(b[56:]),
	}
	nCounts := binary.LittleEndian.Uint64(b[64:])
	if want := uint64(len(body) - headerSize); nCounts*8 != want || nCounts > want {
		return nil, fmt.Errorf("%w: %d counts in a %d-byte body", ErrCorrupt, nCounts, len(body)-headerSize)
	}
	if c.Slice() {
		// A slice's counts cover [SliceLo, SliceHi) of the padded global
		// universe, so the table is the slice width, not the universe. The
		// width/alignment discipline mirrors sumcheck.SliceParams; deeper
		// validation against the dataset's parameterization is the
		// engine's job at adoption time.
		width := c.SliceHi - c.SliceLo
		if c.SliceLo >= c.SliceHi {
			return nil, fmt.Errorf("%w: slice [%d,%d) is empty", ErrCorrupt, c.SliceLo, c.SliceHi)
		}
		if width != nCounts {
			return nil, fmt.Errorf("%w: slice [%d,%d) has width %d but %d counts", ErrCorrupt, c.SliceLo, c.SliceHi, width, nCounts)
		}
		if width < 2 || width&(width-1) != 0 || c.SliceLo%width != 0 {
			return nil, fmt.Errorf("%w: slice [%d,%d) is not width-aligned power of two", ErrCorrupt, c.SliceLo, c.SliceHi)
		}
	} else if c.Universe > nCounts {
		return nil, fmt.Errorf("%w: universe %d exceeds table length %d", ErrCorrupt, c.Universe, nCounts)
	}
	if wantModulus != 0 && c.Modulus != wantModulus {
		return nil, fmt.Errorf("%w: file has p=%d, engine has p=%d", ErrModulus, c.Modulus, wantModulus)
	}
	c.Counts = make([]int64, nCounts)
	off := headerSize
	for i := range c.Counts {
		c.Counts[i] = int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return c, nil
}

// Save writes the checkpoint to path atomically: encode, write to a
// temporary file in the same directory, fsync, rename, fsync the
// directory. A crash at any point leaves either the old file or the new
// one, never a torn mix — and a returned nil means the new file (its
// directory entry included) is durably on disk, which is what lets the
// engine free tables immediately after an eviction save.
func Save(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(Encode(c)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads and decodes the checkpoint at path. Structural damage
// surfaces as ErrCorrupt/ErrVersion, a field mismatch as ErrModulus
// (when wantModulus is non-zero); missing files surface as the
// underlying fs error (os.IsNotExist distinguishes them).
func Load(path string, wantModulus uint64) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(b, wantModulus)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
