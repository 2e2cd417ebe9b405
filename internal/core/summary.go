package core

import (
	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/lde"
	"repro/internal/stream"
)

// Summary is a streaming verifier's whole observed state: up to three
// O(log u) fingerprints of the stream, their randomness drawn before the
// first update; a nil field is a family it was not drawn with. Each
// verifier adopts the families it needs (Adopt) and observes each by one
// direct call into lde or hashtree.
type Summary struct {
	Tree  *hashtree.RootEvaluator // plain tree root: SUB-VECTOR and its wrappers
	Point *lde.Evaluator          // f_a(r) at a secret point: the sum-check kinds
	Aug   *hashtree.RootEvaluator // augmented tree root: HEAVY HITTERS
}

// Families is a set of summary families.
type Families uint8

// The summary families.
const (
	FamilyTree Families = 1 << iota
	FamilyPoint
	FamilyAug
)

// DrawSummary draws fams for a universe of 2^d leaves (ℓ = 2), always in
// the order tree → point → augmented tree: every verifier's randomness is
// a function of that order, so each protocol's NewVerifier(rng) is
// DrawSummary on rng, then Adopt.
func DrawSummary(f field.Field, d int, fams Families, rng field.RNG) Summary {
	tp := hashtree.Params{D: d, U: 1 << d}
	var s Summary
	if fams&FamilyTree != 0 {
		s.Tree = hashtree.NewRootEvaluator(hashtree.NewHasher(f, tp, hashtree.Affine, rng))
	}
	if fams&FamilyPoint != 0 {
		s.Point = lde.NewEvaluator(lde.RandomPoint(f, lde.Params{Ell: 2, D: d, U: tp.U}, rng))
	}
	if fams&FamilyAug != 0 {
		s.Aug = hashtree.NewRootEvaluator(hashtree.NewAugmentedHasher(f, tp, hashtree.Affine, rng))
	}
	return s
}

// Observe folds one stream update into every summary present.
func (s Summary) Observe(up stream.Update) (err error) {
	if s.Tree != nil {
		err = s.Tree.Update(up.Index, up.Delta)
	}
	if s.Point != nil && err == nil {
		err = s.Point.Update(up.Index, up.Delta)
	}
	if s.Aug != nil && err == nil {
		err = s.Aug.Update(up.Index, up.Delta)
	}
	return err
}
