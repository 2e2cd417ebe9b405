package harness

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

func TestF2MultiRoundRow(t *testing.T) {
	row, err := F2MultiRound(f61, 1<<10, 1000, 42, 0)
	if err != nil {
		t.Fatalf("row errored: %v", err)
	}
	if !row.Accepted {
		t.Fatal("honest run not accepted")
	}
	if row.U != 1<<10 || row.N != 1<<10 {
		t.Errorf("u=%d n=%d, want 1024", row.U, row.N)
	}
	if row.UpdatesPerSec <= 0 {
		t.Error("no throughput measured")
	}
	// Theorem 4: comm = (3d+1) + (d-1) words = 8·(4d) bytes.
	if row.CommBytes != 8*(4*10) {
		t.Errorf("comm = %d bytes, want %d", row.CommBytes, 8*40)
	}
	if row.SpaceBytes > 8*64 {
		t.Errorf("verifier space %d bytes not O(log u)", row.SpaceBytes)
	}
}

func TestF2OneRoundRow(t *testing.T) {
	row, err := F2OneRound(f61, 1<<10, 1000, 43, 0)
	if err != nil {
		t.Fatalf("row errored: %v", err)
	}
	if !row.Accepted {
		t.Fatal("honest run not accepted")
	}
	// Θ(√u): ℓ=32 → proof 2ℓ-1 = 63 words, space 2ℓ+1 = 65 words.
	if row.CommBytes != 8*63 {
		t.Errorf("comm = %d bytes, want %d", row.CommBytes, 8*63)
	}
	if row.SpaceBytes != 8*65 {
		t.Errorf("space = %d bytes, want %d", row.SpaceBytes, 8*65)
	}
}

// TestFig2Shapes checks the qualitative claims of Figure 2 at small scale:
// the one-round prover grows strictly faster than linear while the
// multi-round prover stays near-linear, and the one-round verifier keeps
// √u space while the multi-round verifier keeps O(log u).
func TestFig2Shapes(t *testing.T) {
	mr1, err := F2MultiRound(f61, 1<<10, 1000, 44, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr2, err := F2MultiRound(f61, 1<<14, 1000, 44, 0)
	if err != nil {
		t.Fatal(err)
	}
	or1, err := F2OneRound(f61, 1<<10, 1000, 44, 0)
	if err != nil {
		t.Fatal(err)
	}
	or2, err := F2OneRound(f61, 1<<14, 1000, 44, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Space: multi-round grows additively (O(log u)), one-round by ~4×
	// (√16 = 4).
	if or2.SpaceBytes < 3*or1.SpaceBytes {
		t.Errorf("one-round space did not grow like √u: %d → %d", or1.SpaceBytes, or2.SpaceBytes)
	}
	if mr2.SpaceBytes > 2*mr1.SpaceBytes {
		t.Errorf("multi-round space grew too fast: %d → %d", mr1.SpaceBytes, mr2.SpaceBytes)
	}
	// Communication likewise.
	if or2.CommBytes < 3*or1.CommBytes {
		t.Errorf("one-round comm did not grow like √u: %d → %d", or1.CommBytes, or2.CommBytes)
	}
	if mr2.CommBytes > 2*mr1.CommBytes {
		t.Errorf("multi-round comm grew too fast: %d → %d", mr1.CommBytes, mr2.CommBytes)
	}
	_ = mr1.ProveTime // timing shape asserted in EXPERIMENTS.md, not in CI
}

func TestSubVectorRow(t *testing.T) {
	row, err := SubVectorRun(f61, 1<<12, 1000, 1000, 45, 0)
	if err != nil {
		t.Fatalf("row errored: %v", err)
	}
	if !row.Accepted {
		t.Fatal("honest run not accepted")
	}
	if row.Span != 1000 {
		t.Errorf("span = %d", row.Span)
	}
	if row.K == 0 {
		t.Error("no entries reported from a dense workload")
	}
	// Communication is dominated by the k reported values (the paper's
	// "the rest is less than 1KB").
	overhead := row.CommBytes - 16*row.K
	if overhead > 1024 {
		t.Errorf("non-answer communication %d bytes exceeds 1KB", overhead)
	}
}

func TestSubVectorSpanClamped(t *testing.T) {
	row, err := SubVectorRun(f61, 64, 1000, 10, 46, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Span != 64 {
		t.Errorf("span = %d, want clamped 64", row.Span)
	}
}

func TestTamperSuiteAllRejected(t *testing.T) {
	outcomes, err := TamperSuite(f61, 256, 47)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"SELF-JOIN SIZE/flip opening", "SELF-JOIN SIZE/flip round 3", "SELF-JOIN SIZE/drop update",
		"SUB-VECTOR/flip answer value", "SUB-VECTOR/flip sibling hash", "SUB-VECTOR/drop first entry",
		"HEAVY HITTERS/inflate count", "RANGE-SUM/flip claim", "F0/flip sum-check",
	}
	if len(outcomes) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(outcomes), len(want))
	}
	for i, o := range outcomes {
		if got := o.Query + "/" + o.Mode; got != want[i] {
			t.Errorf("row %d is %s, want %s", i, got, want[i])
		}
		if !o.Rejected {
			t.Errorf("%s / %s: dishonest prover was accepted", o.Query, o.Mode)
		}
	}
}

func TestBranchingSweep(t *testing.T) {
	rows, err := BranchingSweep(f61, 4096, []int{2, 4, 8, 16}, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if !r.Accepted {
			t.Fatalf("ℓ=%d not accepted", r.Ell)
		}
		if i > 0 {
			// Fewer rounds as ℓ grows; total communication 2dℓ words is
			// non-decreasing (ℓ=2 and ℓ=4 tie exactly) — footnote 1.
			if r.Rounds >= rows[i-1].Rounds {
				t.Errorf("ℓ=%d rounds %d not below ℓ=%d rounds %d", r.Ell, r.Rounds, rows[i-1].Ell, rows[i-1].Rounds)
			}
			if r.CommWords < rows[i-1].CommWords {
				t.Errorf("ℓ=%d comm %d below ℓ=%d comm %d", r.Ell, r.CommWords, rows[i-1].Ell, rows[i-1].CommWords)
			}
		}
	}
	if last, first := rows[len(rows)-1], rows[0]; last.CommWords <= first.CommWords {
		t.Errorf("ℓ=%d comm %d not above ℓ=%d comm %d", last.Ell, last.CommWords, first.Ell, first.CommWords)
	}
	if _, err := BranchingSweep(f61, 4096, []int{3}, 48); err == nil {
		t.Error("non-power branching accepted")
	}
}

func TestIPv6Extrapolate(t *testing.T) {
	est := IPv6Extrapolate(1<<20, 20e6)
	if est.MeasuredLogU != 20 {
		t.Errorf("log u = %d, want 20", est.MeasuredLogU)
	}
	// 6e10 · (128/20) / 20e6 = 19200 seconds.
	if est.EstimatedSeconds < 19000 || est.EstimatedSeconds > 19500 {
		t.Errorf("estimate %.0f s outside expected band", est.EstimatedSeconds)
	}
}

// TestCompareF2 checks that both protocols accept, agree, and exhibit the
// §3-Remarks cost ordering: GKR strictly more communication and rounds.
// The GKR row counts exactly the words the session exchanges: the posted
// proof's prover messages plus the verifier's challenge schedule.
func TestCompareF2(t *testing.T) {
	var prevRatio float64
	for _, logu := range []int{3, 5, 7} {
		u := uint64(1) << logu
		native, gkrRow, err := CompareF2(f61, u, 77)
		if err != nil {
			t.Fatalf("u=2^%d: %v", logu, err)
		}
		if want := gkrSessionWords(t, u); gkrRow.CommWords != want {
			t.Fatalf("u=2^%d: GKR row reports %d words, the session exchanges %d", logu, gkrRow.CommWords, want)
		}
		if !native.Accepted || !gkrRow.Accepted {
			t.Fatalf("u=2^%d: a protocol did not accept", logu)
		}
		if gkrRow.CommWords <= native.CommWords || gkrRow.Rounds <= native.Rounds {
			t.Fatalf("u=2^%d: GKR (%d words, %d rounds) not above native (%d, %d)",
				logu, gkrRow.CommWords, gkrRow.Rounds, native.CommWords, native.Rounds)
		}
		// The quadratic gap: the ratio must grow with log u.
		ratio := float64(gkrRow.CommWords) / float64(native.CommWords)
		if ratio <= prevRatio {
			t.Fatalf("u=2^%d: comm ratio %.2f did not grow (prev %.2f)", logu, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// gkrSessionWords counts the words of one GKR F2 conversation over u:
// every prover message of the snapshot's posted proof plus every
// challenge of the matching verifier.
func gkrSessionWords(t *testing.T, u uint64) int {
	t.Helper()
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UniformDeltas(u, 100, field.NewSplitMix64(77))); err != nil {
		t.Fatal(err)
	}
	params := engine.QueryParams{Circuit: circuit.FamilyF2}
	pf, err := ds.Snapshot().GenerateProof(engine.QueryCircuit, params)
	if err != nil {
		t.Fatal(err)
	}
	v, err := engine.NewStreamVerifier(f61, u, engine.QueryCircuit, params, field.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	words := 0
	for _, m := range append(pf.Messages, v.Challenges()...) {
		words += m.Words()
	}
	return words
}
