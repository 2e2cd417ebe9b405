package sumcheck

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/field"
)

// appendLivePairsRef is the scan of a table of field elements that
// AppendLiveCounts replaced, kept as its reference: the live pairs of
// table, 8 at a time, first+w for each pair w with a non-zero element,
// listing none once more than limit are live.
func appendLivePairsRef(dst []uint32, first int, table []field.Elem, limit int) ([]uint32, int) {
	tables := [][]field.Elem{table}
	given, n := dst, 0
	for w, npairs := 0, len(table)/2; w < npairs; w += 8 {
		m := liveMask(tables, w, min(8, npairs-w))
		if n += bits.OnesCount(m); n > limit {
			dst = given
			continue
		}
		for ; m != 0; m &= m - 1 {
			dst = append(dst, uint32(first+w+bits.TrailingZeros(m)))
		}
	}
	return dst, n
}

// countsFrom decodes a table of 2 << (shape % 12) counts from data: each
// count is one class byte and, for the classes that need it, the bytes
// after it; a count past the end of data is 0. The classes reach every
// edge a chunk of counts can hold: 0, small counts of either sign, ±p,
// ±2p, ±2^62, the int64 extremes and any 8 bytes.
func countsFrom(f field.Field, shape uint8, data []byte) []int64 {
	counts := make([]int64, 2<<(shape%12))
	p := int64(f.Modulus())
	for i := range counts {
		if len(data) == 0 {
			break
		}
		class := data[0]
		data = data[1:]
		var c int64
		switch class % 12 {
		case 0:
		case 1, 2, 3:
			if len(data) > 0 {
				c = int64(int8(data[0]))
				data = data[1:]
			}
		case 4:
			c = p
		case 5:
			c = -p
		case 6:
			c = 2 * p
		case 7:
			c = 1 << 62
		case 8:
			c = -1 << 62
		case 9:
			c = math.MinInt64
		case 10:
			c = math.MaxInt64
		case 11:
			if len(data) >= 8 {
				c = int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		}
		counts[i] = c
	}
	return counts
}

// repeat returns n copies of b, end to end.
func repeat(b []byte, n int) []byte {
	out := make([]byte, 0, n*len(b))
	for range n {
		out = append(out, b...)
	}
	return out
}

// FuzzLiveCounts checks the scan of a chunk of counts, read as a dataset
// engine reads it — through ReducedCounts when its largest |count| may
// reach p — against the field-element scan of the chunk's field image
// (FromInt64Slice): the same live pairs, listed the same way at every
// limit, and the reduced copy equal to the image. mod picks the
// Mersenne field or a small prime whose multiples small counts reach;
// limit picks the list limit: the live count exactly, one under it, the
// chunk's sparse bound, or none.
func FuzzLiveCounts(f *testing.F) {
	seeds := []struct {
		mod, shape, limit uint8
		data              []byte
	}{
		{0, 0, 0, []byte{1, 5}},                      // u = 2: one short chunk
		{0, 1, 0, []byte{0, 0, 1, 0xff}},             // u = 4: a negative count in the second pair
		{0, 1, 1, []byte{2, 3, 0, 3, 0xfe, 0, 1, 1}}, // u = 4, one under the live count
		{0, 2, 0, []byte{4, 5, 0, 0, 7, 9, 0, 8}},    // p, −p, 2^62, MinInt64
		{1, 3, 0, []byte{4, 0, 6, 0, 5, 0, 0, 0, 1, 3, 0, 0, 0, 0, 1, 7}},
		{1, 6, 2, append(repeat([]byte{0}, 40), 1, 1, 4, 1, 2)},
		{0, 11, 0, repeat([]byte{1, 9, 0, 0}, 1024)}, // 4096 entries, a quarter of the pairs live: the limit exactly
		{0, 11, 2, repeat([]byte{1, 9, 0, 0}, 1024)}, // the same under the sparse bound
		{1, 5, 3, repeat([]byte{11, 1, 2, 3, 4, 5, 6, 7, 0x80}, 20)},
	}
	for _, s := range seeds {
		f.Add(s.mod, s.shape, s.limit, s.data)
	}
	small, err := field.New(1000003)
	if err != nil {
		f.Fatal(err)
	}
	fields := []field.Field{field.Mersenne(), small}
	f.Fuzz(func(t *testing.T, mod, shape, limitSel uint8, data []byte) {
		fld := fields[int(mod)%len(fields)]
		counts := countsFrom(fld, shape, data)
		elems := make([]field.Elem, len(counts))
		fld.FromInt64Slice(elems, counts)
		var peak uint64
		for _, c := range counts {
			mag := uint64(c)
			if c < 0 {
				mag = -mag
			}
			peak = max(peak, mag)
		}
		view := counts
		if peak >= fld.Modulus() {
			view = ReducedCounts(fld, counts)
			for i, c := range view {
				if c < 0 || uint64(c) != uint64(elems[i]) {
					t.Fatalf("reduced count %d is %d, the field image %d", i, c, elems[i])
				}
			}
		}
		_, nlive := appendLivePairsRef(nil, 0, elems, len(elems))
		limit := []int{nlive, nlive - 1, MaxSparseLive(2, len(counts)), -1}[limitSel%4]
		first := int(shape) * 4096
		want, wantN := appendLivePairsRef([]uint32{9}, first, elems, limit)
		got, gotN := AppendLiveCounts([]uint32{9}, first, view, limit)
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("%d counts at limit %d: scan listed %v (%d live), the image's %v (%d live)", len(counts), limit, got, gotN, want, wantN)
		}
		if len(counts) >= 2 {
			cs, es := ScanLivePairs(2, 0, Flat(view)), ScanLivePairs(2, 0, Flat(elems))
			if cs.Sparse() != es.Sparse() || !slices.Equal(cs.Indices(), es.Indices()) {
				t.Fatalf("%d counts: ScanLivePairs of the counts differs from the image's", len(counts))
			}
		}
	})
}
