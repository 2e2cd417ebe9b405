package harness

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// TestFig2Shapes checks the rows of Figure 2 at small scale: both
// provers are accepted, at u = 2^10 the multi-round protocol sends
// Theorem 4's 4d words and the one-round protocol Θ(√u) (ℓ = 32: a proof
// of 2ℓ−1 words, a verifier of 2ℓ+1), and from 2^10 to 2^14 the
// one-round verifier's space and communication grow like √u while the
// multi-round verifier's stay O(log u).
func TestFig2Shapes(t *testing.T) {
	var mr, or [2]F2Row
	for i, u := range []uint64{1 << 10, 1 << 14} {
		var err error
		if mr[i], err = F2MultiRound(f61, u, 1000, 44, 0); err != nil || !mr[i].Accepted {
			t.Fatalf("multi-round u=%d: accepted=%v, %v", u, mr[i].Accepted, err)
		}
		if or[i], err = F2OneRound(f61, u, 1000, 44, 0); err != nil || !or[i].Accepted {
			t.Fatalf("one-round u=%d: accepted=%v, %v", u, or[i].Accepted, err)
		}
	}
	mr1, mr2, or1, or2 := mr[0], mr[1], or[0], or[1]
	if mr1.U != 1<<10 || mr1.N != 1<<10 || mr1.UpdatesPerSec <= 0 {
		t.Errorf("multi-round row u=%d n=%d at %v updates/s", mr1.U, mr1.N, mr1.UpdatesPerSec)
	}
	if mr1.CommBytes != 8*(4*10) || mr1.SpaceBytes > 8*64 {
		t.Errorf("multi-round comm %d bytes (want %d), space %d bytes", mr1.CommBytes, 8*40, mr1.SpaceBytes)
	}
	if or1.CommBytes != 8*63 || or1.SpaceBytes != 8*65 {
		t.Errorf("one-round comm %d, space %d bytes; want %d, %d", or1.CommBytes, or1.SpaceBytes, 8*63, 8*65)
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
// The GKR row counts exactly the words the session exchanges, both ways.
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
// core.Run's count of every prover message and every challenge between
// the snapshot's CIRCUIT prover and a stream-fed verifier.
func gkrSessionWords(t *testing.T, u uint64) int {
	t.Helper()
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(77))
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	params := engine.QueryParams{Circuit: circuit.FamilyF2}
	p, err := ds.Snapshot().NewProver(engine.QueryCircuit, params)
	if err != nil {
		t.Fatal(err)
	}
	v, err := engine.NewStreamVerifier(f61, u, engine.QueryCircuit, params, field.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	st, err := core.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return st.CommWords()
}
