// core.Fk's chunked constructors, as 86d849e^ held them in
// internal/core/aggregate.go and partial.go.

package core

import (
	"repro/internal/sumcheck"
)

// NewProverFromChunks is NewProverFromTable over a table held in chunks
// (sumcheck.NewChunkedProver; ℓ = 2 only) — typically a dataset-engine
// snapshot. live is called once, when the prover opens, and must return
// the table's live-pair scan: a dataset engine's memo, shared by every
// prover of one table version.
func (p *Fk) NewProverFromChunks(tab sumcheck.Chunked, live func() sumcheck.LivePairs) (*FkProver, error) {
	if live == nil {
		return nil, fmt.Errorf("core: a chunked table needs its live-pair scan")
	}
	return &FkProver{scProver: scProver{live: live}, proto: p, chunks: tab}, nil
}

// NewPartialProverFromChunks is NewPartialProverFromTable over the
// slice's table held in chunks, as NewProverFromChunks takes a whole one;
// live is required.
func (p *Fk) NewPartialProverFromChunks(tab sumcheck.Chunked, live func() sumcheck.LivePairs, lo, hi, version uint64) (*PartialProver, error) {
	if live == nil {
		return nil, fmt.Errorf("core: a chunked table needs its live-pair scan")
	}
	pr, err := newPartialProver(p.scConfig(), live, lo, hi, version)
	if err != nil {
		return nil, err
	}
	pr.chunks = tab
	return pr, nil
}
