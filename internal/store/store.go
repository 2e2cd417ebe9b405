// Package store is the durable checkpoint codec of the dataset engine.
//
// A checkpoint serializes the aggregate state a dataset's provers are
// built from — the count vector, Σδ, the ingested-update count, the
// universe size, and the field modulus — into one self-describing,
// checksummed file. The counts are every prover's one input: no field
// image of them is stored, or held in memory either.
//
// The counts are written chunk by chunk, in the engine's chunks of
// ChunkLen(n) = min(2^ChunkShift, n) entries, so a file costs what the
// table holds: a chunk of zeros is not written at all, a chunk with at
// most a quarter of its entries non-zero (the sum-check prover's own
// sparse rule) is written as (offset, count) pairs, and a denser chunk
// is written whole. Layout (all integers little-endian):
//
//	magic    [8]byte  "SIPCKPT" + version byte
//	universe uint64   universe size as requested at dataset creation
//	modulus  uint64   field modulus the counts were ingested under
//	total    int64    Σδ over the ingested stream
//	updates  uint64   number of stream updates ingested
//	version  uint64   dataset version (ingest batches applied)
//	sliceLo  uint64   slice lower bound in the padded universe
//	sliceHi  uint64   slice upper bound (0 = whole-universe dataset)
//	nCounts  uint64   table length n: ℓ^d ≥ universe, or sliceHi−sliceLo
//	chunkLen uint64   w = ChunkLen(n); n is a whole number of chunks
//	records           one per chunk holding a non-zero count, in
//	                  increasing chunk order:
//	  chunk  uint64   chunk index k: the record covers entries [k·w, (k+1)·w)
//	  live   uint32   its non-zero entries, 1 ≤ live ≤ w
//	  sparse          live ≤ w/4: live × (offset uint16, count int64),
//	                  offsets strictly increasing, every count non-zero
//	  dense           live > w/4: w × int64
//	crc      uint32   CRC-32C over everything above
//
// Every table has exactly one encoding: Decode refuses a record out of
// chunk order, an empty or miscounted chunk, a sparse record that should
// be dense or the reverse, and unordered, repeated or out-of-range
// offsets — all as ErrCorrupt.
//
// A *slice* checkpoint (sliceHi > 0) is a dataset owning only the index
// range [sliceLo, sliceHi) of a split universe: universe still records
// the *global* universe size (the protocols are parameterized by it),
// while counts holds only the slice's sliceHi−sliceLo entries. For
// whole-universe checkpoints both slice fields are zero.
//
// This is format 4, the only one this build reads or writes; the version
// byte of any other format — format 3's dense files included — is
// refused with ErrVersion.
//
// Save is atomic: the bytes are written to a temporary file in the
// destination directory, synced, and renamed over the target, so a crash
// mid-save leaves the previous checkpoint intact. Load rejects
// truncated, corrupt, version-bumped, and foreign-field files with the
// typed errors ErrCorrupt, ErrVersion, and ErrModulus — a recovery scan
// must never panic or silently accept a damaged table.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// magic identifies a checkpoint file; the trailing byte is the format
// version.
var magic = [8]byte{'S', 'I', 'P', 'C', 'K', 'P', 'T', version}

// version is the checkpoint format version.
const version = 4

// ChunkShift sets the chunk of the format: 2^12 entries, the engine's
// own table chunk. A table narrower than that is one chunk.
const ChunkShift = 12

// ChunkLen returns the chunk length w of a table of n entries.
func ChunkLen(n uint64) uint64 { return min(n, 1<<ChunkShift) }

// headerSize is the fixed prefix before the records: magic + nine
// uint64 fields.
const headerSize = 8 + 9*8

// recordHead is a record's chunk index and live count; pairSize is one
// sparse (offset, count) pair.
const (
	recordHead = 8 + 4
	pairSize   = 2 + 8
)

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

// Checkpoint is the durable state of one dataset. Its counts are held in
// one of two shapes: flat in Counts, or, when Counts is nil, as the
// chunks in Chunks over a table of Entries entries.
type Checkpoint struct {
	Universe uint64  // global universe size as requested at creation (pre-padding)
	Modulus  uint64  // field modulus the dataset was ingested under
	Total    int64   // Σδ over the ingested stream
	Updates  uint64  // stream updates ingested
	Version  uint64  // dataset version: ingest batches applied (see package doc)
	SliceLo  uint64  // slice lower bound in the padded universe (0 for whole datasets)
	SliceHi  uint64  // slice upper bound; 0 means a whole-universe dataset
	Counts   []int64 // flat frequency vector: padded to ℓ^d ≥ Universe, or the slice's width

	// Chunks, when Counts is nil, holds the vector as chunks of
	// ChunkLen(Entries) entries, in increasing Index order; a chunk not
	// listed is all zero. Encode writes a listed chunk of zeros as it
	// writes an unlisted one, whatever its form; DecodeChunks and
	// LoadChunks list only chunks holding a non-zero count, each sparse
	// when it holds at most MaxSparse of them.
	Chunks  []Chunk
	Entries uint64 // table length; Decode sets it, Encode reads it only when Counts is nil
}

// Chunk is one chunk of a checkpoint's counts, in one of two forms. A
// dense chunk's Counts are its w counts. A sparse chunk, one whose
// Offsets are not nil, lists its non-zero counts only: Counts[j] is
// entry Offsets[j] of the chunk, the offsets strictly increasing and
// every listed count non-zero, as a sparse record holds them.
type Chunk struct {
	Index   uint64   // the chunk covers entries [Index·w, (Index+1)·w) of the table
	Offsets []uint16 // the sparse form's offsets; nil for a dense chunk
	Counts  []int64  // its w counts, or the sparse form's listed ones
	Peak    uint64   // its largest |count|: DecodeChunks sets it, Encode does not read it
}

// MaxSparse is the most non-zero counts a chunk of w entries holds in
// the sparse form when DecodeChunks fills it: w/16, so its (offset,
// count) lists, 10 bytes a count, cost under 1/12 of the 8w bytes of
// the dense form. A sparse record holds up to w/4; one holding more
// than w/16 is filled into a dense chunk.
func MaxSparse(w uint64) int { return int(w / 16) }

// entries returns the length of the frequency vector.
func (c *Checkpoint) entries() uint64 {
	if c.Counts != nil {
		return uint64(len(c.Counts))
	}
	return c.Entries
}

// chunks returns the checkpoint's chunks.
func (c *Checkpoint) chunks() []Chunk {
	if c.Counts == nil {
		return c.Chunks
	}
	return Chunks(c.Counts)
}

// Chunks cuts a flat table, a whole number of ChunkLen-entry chunks, into
// its chunks, in place.
func Chunks(counts []int64) []Chunk {
	n := uint64(len(counts))
	w := ChunkLen(n)
	var out []Chunk
	for lo := uint64(0); lo < n; lo += w {
		out = append(out, Chunk{Index: lo / w, Counts: counts[lo : lo+w : lo+w]})
	}
	return out
}

// Slice reports whether the checkpoint holds a universe slice rather
// than a whole dataset.
func (c *Checkpoint) Slice() bool { return c.SliceHi != 0 }

// nonZero counts the non-zero entries of counts.
func nonZero(counts []int64) int {
	n := 0
	for _, v := range counts {
		if v != 0 {
			n++
		}
	}
	return n
}

// Encode serializes the checkpoint. A table longer than one chunk must
// be a whole number of chunks, as every table the engine holds is (a
// power of two).
func Encode(c *Checkpoint) []byte {
	n := c.entries()
	w := ChunkLen(n)
	chunks := c.chunks()
	live := make([]int, len(chunks))
	size := headerSize + crcSize
	for i, ch := range chunks {
		live[i] = len(ch.Counts) // a sparse chunk lists no zero
		if ch.Offsets == nil {
			live[i] = nonZero(ch.Counts)
		}
		switch {
		case live[i] == 0:
		case uint64(live[i]) <= w/4:
			size += recordHead + pairSize*live[i]
		default:
			size += recordHead + 8*int(w)
		}
	}
	out := make([]byte, headerSize, size)
	copy(out[:8], magic[:])
	for i, x := range []uint64{c.Universe, c.Modulus, uint64(c.Total), c.Updates, c.Version, c.SliceLo, c.SliceHi, n, w} {
		binary.LittleEndian.PutUint64(out[8+8*i:], x)
	}
	for i, ch := range chunks {
		if live[i] == 0 {
			continue
		}
		out = binary.LittleEndian.AppendUint64(out, ch.Index)
		out = binary.LittleEndian.AppendUint32(out, uint32(live[i]))
		switch dense := uint64(live[i]) > w/4; {
		case dense && ch.Offsets != nil:
			for j, next := 0, 0; j < int(w); j++ {
				var v int64
				if next < len(ch.Offsets) && int(ch.Offsets[next]) == j {
					v, next = ch.Counts[next], next+1
				}
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		case dense:
			for _, v := range ch.Counts {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		case ch.Offsets != nil:
			for j, v := range ch.Counts {
				out = binary.LittleEndian.AppendUint16(out, ch.Offsets[j])
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		default:
			for j, v := range ch.Counts {
				if v != 0 {
					out = binary.LittleEndian.AppendUint16(out, uint16(j))
					out = binary.LittleEndian.AppendUint64(out, uint64(v))
				}
			}
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// Decode parses a checkpoint into flat Counts, verifying structure and
// checksum. A non-zero wantModulus additionally requires the
// checkpoint's field to match (ErrModulus otherwise). Decode allocates
// the n entries its header declares, whatever the records hold: it is
// for callers that chose the flat shape and trust the file's geometry.
// Engines read untrusted files with DecodeChunks.
func Decode(b []byte, wantModulus uint64) (*Checkpoint, error) {
	return decode(b, wantModulus, true)
}

// DecodeChunks is Decode into Chunks: one chunk per record, never a
// flat vector, with its Peak. A record of at most MaxSparse counts fills
// a sparse chunk of just those; any other fills a dense chunk. A file of
// b bytes allocates O(b) plus at most one ChunkLen-entry chunk per
// record (each record holds a non-zero count), so it is safe on
// untrusted bytes.
func DecodeChunks(b []byte, wantModulus uint64) (*Checkpoint, error) {
	return decode(b, wantModulus, false)
}

// decode is Decode (flat) and DecodeChunks (!flat).
func decode(b []byte, wantModulus uint64, flat bool) (*Checkpoint, error) {
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
		Entries:  binary.LittleEndian.Uint64(b[64:]),
	}
	n, w := c.Entries, binary.LittleEndian.Uint64(b[72:])
	if w != ChunkLen(n) {
		return nil, fmt.Errorf("%w: chunk length %d, the format's is %d for %d counts", ErrCorrupt, w, ChunkLen(n), n)
	}
	if w > 0 && n%w != 0 {
		return nil, fmt.Errorf("%w: %d counts are not a whole number of %d-entry chunks", ErrCorrupt, n, w)
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
		if width != n {
			return nil, fmt.Errorf("%w: slice [%d,%d) has width %d but %d counts", ErrCorrupt, c.SliceLo, c.SliceHi, width, n)
		}
		if width < 2 || width&(width-1) != 0 || c.SliceLo%width != 0 {
			return nil, fmt.Errorf("%w: slice [%d,%d) is not width-aligned power of two", ErrCorrupt, c.SliceLo, c.SliceHi)
		}
	} else if c.Universe > n {
		return nil, fmt.Errorf("%w: universe %d exceeds table length %d", ErrCorrupt, c.Universe, n)
	}
	if wantModulus != 0 && c.Modulus != wantModulus {
		return nil, fmt.Errorf("%w: file has p=%d, engine has p=%d", ErrModulus, c.Modulus, wantModulus)
	}
	if flat {
		if n > math.MaxInt/8 {
			return nil, fmt.Errorf("%w: %d counts cannot be held flat", ErrCorrupt, n)
		}
		c.Counts = make([]int64, n)
	}
	rest := body[headerSize:]
	for next := uint64(0); len(rest) > 0; {
		if len(rest) < recordHead {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
		}
		k, live := binary.LittleEndian.Uint64(rest), uint64(binary.LittleEndian.Uint32(rest[8:]))
		rest = rest[recordHead:]
		if k < next || w == 0 || k >= n/w {
			return nil, fmt.Errorf("%w: chunk %d out of order or past the table's %d", ErrCorrupt, k, n/w)
		}
		next = k + 1
		if live == 0 || live > w {
			return nil, fmt.Errorf("%w: chunk %d has %d live entries of %d", ErrCorrupt, k, live, w)
		}
		ch := Chunk{Index: k}
		switch {
		case flat:
			ch.Counts = c.Counts[k*w : (k+1)*w]
		case live <= uint64(MaxSparse(w)):
			ch.Offsets, ch.Counts = make([]uint16, live), make([]int64, live)
		default:
			ch.Counts = make([]int64, w)
		}
		var err error
		if live > w/4 {
			rest, ch.Peak, err = readDense(rest, ch.Counts, live)
		} else {
			rest, ch.Peak, err = readSparse(rest, ch, live, w)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, k, err)
		}
		if !flat {
			c.Chunks = append(c.Chunks, ch)
		}
	}
	return c, nil
}

// magnitude returns |v| as a uint64 (MinInt64 included).
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// readDense reads a dense record's counts, which must hold live
// non-zero entries, in one pass, and returns the bytes after it and the
// largest |count|.
func readDense(b []byte, counts []int64, live uint64) ([]byte, uint64, error) {
	if len(b) < 8*len(counts) {
		return nil, 0, fmt.Errorf("%d bytes for %d counts", len(b), len(counts))
	}
	var got, peak uint64
	for j := range counts {
		v := int64(binary.LittleEndian.Uint64(b[8*j:]))
		counts[j] = v
		if v != 0 {
			got++
		}
		peak = max(peak, magnitude(v))
	}
	if got != live {
		return nil, 0, fmt.Errorf("dense record holds %d live entries, says %d", got, live)
	}
	return b[8*len(counts):], peak, nil
}

// readSparse reads a sparse record's live pairs of a w-entry chunk into
// ch — as its listed pairs when it is sparse, else into its zeroed w
// counts — and returns the bytes after it and the largest |count|.
func readSparse(b []byte, ch Chunk, live, w uint64) ([]byte, uint64, error) {
	if uint64(len(b)) < pairSize*live {
		return nil, 0, fmt.Errorf("%d bytes for %d pairs", len(b), live)
	}
	prev, peak := -1, uint64(0)
	for i := range int(live) {
		j, v := int(binary.LittleEndian.Uint16(b)), int64(binary.LittleEndian.Uint64(b[2:]))
		b = b[pairSize:]
		if j <= prev || uint64(j) >= w {
			return nil, 0, fmt.Errorf("offset %d after %d in a %d-entry chunk", j, prev, w)
		}
		if v == 0 {
			return nil, 0, fmt.Errorf("offset %d holds a zero", j)
		}
		if ch.Offsets != nil {
			ch.Offsets[i], ch.Counts[i] = uint16(j), v
		} else {
			ch.Counts[j] = v
		}
		prev, peak = j, max(peak, magnitude(v))
	}
	return b, peak, nil
}

// Save writes the checkpoint to path with WriteAtomic: a returned nil
// means the new file is durably on disk, which is what lets the engine
// free tables immediately after an eviction save.
func Save(path string, c *Checkpoint) error {
	return WriteAtomic(path, bytes.NewReader(Encode(c)))
}

// WriteAtomic writes what src holds to path atomically and durably:
// write to a fresh temporary file in the same directory, fsync, rename,
// fsync the directory. A crash at any point leaves either the old file
// or the new one, never a torn mix, and a returned nil means the new
// file (its directory entry included) is on disk. Each call has its own
// temporary file, so concurrent writers of one path never collide; the
// last rename wins. The file is created with mode 0600.
func WriteAtomic(path string, src io.Reader) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := io.Copy(tmp, src); err != nil {
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

// Load reads and decodes the checkpoint at path into flat Counts.
// Structural damage surfaces as ErrCorrupt/ErrVersion, a field mismatch
// as ErrModulus (when wantModulus is non-zero); missing files surface as
// the underlying fs error (os.IsNotExist distinguishes them).
func Load(path string, wantModulus uint64) (*Checkpoint, error) {
	return load(path, wantModulus, Decode)
}

// LoadChunks is Load into Chunks (see DecodeChunks).
func LoadChunks(path string, wantModulus uint64) (*Checkpoint, error) {
	return load(path, wantModulus, DecodeChunks)
}

func load(path string, wantModulus uint64, decode func([]byte, uint64) (*Checkpoint, error)) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := decode(b, wantModulus)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
