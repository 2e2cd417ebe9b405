// The snapshot's field-image accessors, as 9a69e44^ held them in
// internal/engine/engine.go.

package engine

import (
	"repro/internal/field"
	"repro/internal/sumcheck"
)

// Elems returns the field image of the frequency vector as a fresh O(u)
// copy, the caller's own. It runs the chunks' memos first (livePairs).
func (s *Snapshot) Elems() []field.Elem {
	s.livePairs()
	return flat(s.st, elemsOf)
}

// elemChunks returns the element table as the sum-check prover's table
// type, borrowed: the SELF-JOIN SIZE and Fk provers (whole and slice
// owner) take it as it is and read it in place. It runs the chunks' memos
// first (livePairs), which build the field image.
func (s *Snapshot) elemChunks() sumcheck.Chunked {
	s.livePairs()
	return sumcheck.Chunked{Width: 1 << s.st.shift, Chunks: column(s.st, elemsOf)}
}
