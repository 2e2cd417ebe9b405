package field

import (
	"testing"
)

// fields under test: the Mersenne fast path and a generic prime.
func batchFields(t *testing.T) []Field {
	t.Helper()
	generic, err := New(1000003)
	if err != nil {
		t.Fatal(err)
	}
	return []Field{Mersenne(), generic}
}

func randVecs(f Field, n int, seed uint64) ([]Elem, []Elem) {
	rng := NewSplitMix64(seed)
	return f.RandVec(rng, n), f.RandVec(rng, n)
}

func TestBatchMatchesScalar(t *testing.T) {
	const n = 257
	for _, f := range batchFields(t) {
		a, b := randVecs(f, n, 42)
		got := make([]Elem, n)

		f.AddSlices(got, a, b)
		for i := range got {
			if want := f.Add(a[i], b[i]); got[i] != want {
				t.Fatalf("AddSlices[%d] = %d, want %d", i, got[i], want)
			}
		}
		f.MulSlices(got, a, b)
		for i := range got {
			if want := f.Mul(a[i], b[i]); got[i] != want {
				t.Fatalf("MulSlices[%d] = %d, want %d", i, got[i], want)
			}
		}
		var dot Elem
		for i := range a {
			dot = f.Add(dot, f.Mul(a[i], b[i]))
		}
		if got := f.DotSlices(a, b); got != dot {
			t.Fatalf("DotSlices = %d, want %d", got, dot)
		}
	}
}

func TestFoldPairs(t *testing.T) {
	const half = 128
	for _, f := range batchFields(t) {
		src, _ := randVecs(f, 2*half, 99)
		r := f.Rand(NewSplitMix64(3))
		dst := make([]Elem, half)
		f.FoldPairs(dst, src, r)
		for i := 0; i < half; i++ {
			// (1-r)·t0 + r·t1, written as t0 + r·(t1-t0).
			want := f.Add(src[2*i], f.Mul(r, f.Sub(src[2*i+1], src[2*i])))
			if dst[i] != want {
				t.Fatalf("FoldPairs[%d] = %d, want %d", i, dst[i], want)
			}
		}
		// Aliasing the front half of src must be safe (in-place fold).
		inPlace := append([]Elem(nil), src...)
		f.FoldPairs(inPlace[:half], inPlace, r)
		for i := 0; i < half; i++ {
			if inPlace[i] != dst[i] {
				t.Fatalf("in-place FoldPairs[%d] = %d, want %d", i, inPlace[i], dst[i])
			}
		}
	}
}

func TestFromInt64Slice(t *testing.T) {
	for _, f := range batchFields(t) {
		is := []int64{0, 1, -1, 1000, -1000, -(1 << 62)}
		dst := make([]Elem, len(is))
		f.FromInt64Slice(dst, is)
		for i, x := range is {
			if want := f.FromInt64(x); dst[i] != want {
				t.Fatalf("FromInt64Slice[%d] = %d, want %d", i, dst[i], want)
			}
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	f := Mersenne()
	for name, fn := range map[string]func(){
		"AddSlices": func() { f.AddSlices(make([]Elem, 2), make([]Elem, 3), make([]Elem, 3)) },
		"FoldPairs": func() { f.FoldPairs(make([]Elem, 2), make([]Elem, 3), 1) },
		"DotSlices": func() { f.DotSlices(make([]Elem, 2), make([]Elem, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
