package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// localOwner is a slice owner in process: a PartialProver behind the
// SplitOwner calls a slice-owning server answers over the wire.
type localOwner struct {
	p          ProverSession
	opened     bool
	challenge  Msg // the last broadcast challenge
	challenges int
	finished   bool
}

func (o *localOwner) Msg() (Msg, error) {
	if !o.opened {
		o.opened = true
		return o.p.Open()
	}
	return o.p.Step(o.challenge)
}

func (o *localOwner) Challenge(m Msg) error {
	o.challenge = m
	o.challenges++
	return nil
}

func (o *localOwner) Finish() error {
	o.finished = true
	return nil
}

// fkSlices opens the local owners of an Fk query over table, split into
// slices equal slices. version(n, k) is slice k's dataset version at
// the n-th open, counted from 1; every owner opened is kept in opened.
// maxWords bounds an opening that ships live pairs: 0 ships none.
type fkSlices struct {
	proto    *Fk
	table    []int64
	slices   int
	version  func(n, k int) uint64
	maxWords int
	opens    int
	opened   []*localOwner
}

func (s *fkSlices) open() ([]SplitOwner, error) {
	s.opens++
	width := s.proto.Params.U / uint64(s.slices)
	owners := make([]SplitOwner, s.slices)
	for k := range owners {
		lo, hi := uint64(k)*width, uint64(k+1)*width
		p, err := s.proto.NewPartialProverFromTable(sumcheck.Flat(s.table[lo:hi]), nil, lo, hi, s.version(s.opens, k), s.maxWords, 0)
		if err != nil {
			return nil, err
		}
		o := &localOwner{p: p}
		s.opened = append(s.opened, o)
		owners[k] = o
	}
	return owners, nil
}

// allFinished fails t unless every owner s opened was finished.
func allFinished(t *testing.T, s *fkSlices) {
	t.Helper()
	for i, o := range s.opened {
		if !o.finished {
			t.Fatalf("owner %d of %d opened was never finished", i, len(s.opened))
		}
	}
}

// newFk returns the Fk protocol over u.
func newFk(t *testing.T, u uint64, k int) *Fk {
	t.Helper()
	proto, err := NewFk(f61, u, k)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// newSplitFk returns the split session of an Fk query over table, its
// slices owners all at version.
func newSplitFk(t *testing.T, u uint64, k, slices int, table []int64, version uint64) *SplitProver {
	t.Helper()
	s := &fkSlices{proto: newFk(t, u, k), table: table, slices: slices,
		version: func(int, int) uint64 { return version }}
	sp, err := NewSplitProver(f61, u, sumcheck.Power{K: k}, s.open)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// runFk runs p against a fresh Fk verifier of ups drawing its
// challenges from seed, and returns the transcript and the result.
func runFk(t *testing.T, proto *Fk, p ProverSession, ups []stream.Update, seed uint64) ([]Msg, field.Elem, error) {
	t.Helper()
	rec := &recordingProver{inner: p}
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, field.NewSplitMix64(seed)))
	observeAll(t, v, ups)
	if _, err := Run(rec, v); err != nil {
		return rec.msgs, 0, err
	}
	res, err := v.Result()
	return rec.msgs, res, err
}

// fkReference is the single-table Fk prover's accepted transcript.
func fkReference(t *testing.T, proto *Fk, table []int64, ups []stream.Update, seed uint64) ([]Msg, field.Elem) {
	t.Helper()
	p, err := proto.NewProverFromTable(sumcheck.Flat(table), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs, res, err := runFk(t, proto, p, ups, seed)
	if err != nil {
		t.Fatalf("reference run rejected: %v", err)
	}
	return msgs, res
}

// TestSplitFkBitIdentical runs the distributed Fk conversation against
// the ordinary verifier and checks every message matches the
// single-prover transcript bit for bit.
func TestSplitFkBitIdentical(t *testing.T) {
	const u = 1 << 7
	rng := field.NewSplitMix64(3)
	ups := stream.UniformDeltas(u, 500, rng)
	table := applied(t, ups, u)
	for _, k := range []int{2, 3} {
		proto := newFk(t, u, k)
		ref, refResult := fkReference(t, proto, table, ups, 77)
		for _, slices := range []int{1, 2, 4} {
			name := fmt.Sprintf("k=%d S=%d", k, slices)
			split := newSplitFk(t, u, k, slices, table, 9)
			msgs, got, err := runFk(t, proto, split, ups, 77)
			if err != nil {
				t.Fatalf("%s: split run rejected: %v", name, err)
			}
			if got != refResult {
				t.Fatalf("%s: result %d ≠ %d", name, got, refResult)
			}
			if split.Version() != 9 {
				t.Fatalf("%s: pinned version %d, want 9", name, split.Version())
			}
			sameTranscript(t, name, msgs, ref)
		}
	}
}

// TestSplitRangeSumBitIdentical does the same for RANGE-SUM, whose
// indicator table each slice materializes locally from the global
// range.
func TestSplitRangeSumBitIdentical(t *testing.T) {
	const u = 1 << 6
	rng := field.NewSplitMix64(5)
	ups := stream.UniformDeltas(u, 300, rng)
	table := applied(t, ups, u)
	const qL, qR = 7, 51
	proto, err := NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p ProverSession) ([]Msg, error) {
		rec := &recordingProver{inner: p}
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, field.NewSplitMix64(13)))
		observeAll(t, v, ups)
		if err := v.SetQuery(qL, qR); err != nil {
			t.Fatal(err)
		}
		_, err := Run(rec, v)
		return rec.msgs, err
	}
	refP, err := proto.NewProverFromTable(sumcheck.Flat(table), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := refP.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	ref, err := run(refP)
	if err != nil {
		t.Fatalf("reference run rejected: %v", err)
	}
	for _, slices := range []int{1, 2, 4, 8} {
		width := proto.Params.U / uint64(slices)
		split, err := NewSplitProver(f61, u, sumcheck.Product{}, func() ([]SplitOwner, error) {
			owners := make([]SplitOwner, slices)
			for s := range owners {
				lo, hi := uint64(s)*width, uint64(s+1)*width
				p, err := proto.NewPartialProverFromTable(sumcheck.Flat(table[lo:hi]), lo, hi, 4, qL, qR, 0, 0)
				if err != nil {
					return nil, err
				}
				owners[s] = &localOwner{p: p}
			}
			return owners, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := run(split)
		if err != nil {
			t.Fatalf("S=%d: split range-sum rejected: %v", slices, err)
		}
		sameTranscript(t, fmt.Sprintf("S=%d", slices), msgs, ref)
	}
}

// TestSplitProverVersionSkew runs the reopen: owners skewed on the
// first open and consistent on the second are accepted with the
// reference transcript; owners skewed on every open are refused with
// ErrSplitVersion after exactly four opens, every owner opened finished.
func TestSplitProverVersionSkew(t *testing.T) {
	const u = 1 << 5
	ups := stream.UniformDeltas(u, 60, field.NewSplitMix64(8))
	table := applied(t, ups, u)
	proto := newFk(t, u, 2)
	ref, _ := fkReference(t, proto, table, ups, 21)

	t.Run("reopen", func(t *testing.T) {
		s := &fkSlices{proto: proto, table: table, slices: 2, version: func(n, k int) uint64 {
			if n == 1 {
				return uint64(3 + k)
			}
			return 5
		}}
		sp, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, s.open)
		if err != nil {
			t.Fatal(err)
		}
		msgs, _, err := runFk(t, proto, sp, ups, 21)
		if err != nil {
			t.Fatalf("reopened run rejected: %v", err)
		}
		sameTranscript(t, "reopen", msgs, ref)
		if s.opens != 2 || sp.Version() != 5 {
			t.Fatalf("%d opens pinned version %d, want 2 opens at version 5", s.opens, sp.Version())
		}
		_ = sp.Close()
		allFinished(t, s)
	})
	t.Run("always skewed", func(t *testing.T) {
		s := &fkSlices{proto: proto, table: table, slices: 2,
			version: func(n, k int) uint64 { return uint64(3 + k) }}
		sp, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, s.open)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := runFk(t, proto, sp, ups, 21); !errors.Is(err, ErrSplitVersion) {
			t.Fatalf("always-skewed run: err = %v, want ErrSplitVersion", err)
		}
		if s.opens != 4 {
			t.Fatalf("%d opens, want 4", s.opens)
		}
		_ = sp.Close()
		allFinished(t, s)
	})
}

// TestSplitProverValidation exercises the slice-count rules: a refused
// count finishes the owners it was handed, and a valid split has the
// owners serve the head rounds, d − log₂ S of them.
func TestSplitProverValidation(t *testing.T) {
	const u = 16
	for _, slices := range []int{0, 3, 16} {
		owners := make([]*localOwner, slices)
		open := func() ([]SplitOwner, error) {
			out := make([]SplitOwner, slices)
			for k := range out {
				owners[k] = &localOwner{}
				out[k] = owners[k]
			}
			return out, nil
		}
		if _, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, open); err == nil {
			t.Fatalf("%d slices of %d accepted", slices, u)
		}
		for k, o := range owners {
			if !o.finished {
				t.Fatalf("%d slices: refused owner %d not finished", slices, k)
			}
		}
	}

	const big = 1000 // pads to 1024: d = 10, and 4 slices serve 8 head rounds
	ups := stream.UniformDeltas(big, 100, field.NewSplitMix64(9))
	proto := newFk(t, big, 2)
	s := &fkSlices{proto: proto, table: applied(t, ups, proto.Params.U), slices: 4,
		version: func(int, int) uint64 { return 1 }}
	sp, err := NewSplitProver(f61, big, sumcheck.Power{K: 2}, s.open)
	if err != nil {
		t.Fatal(err)
	}
	msgs, _, err := runFk(t, proto, sp, ups, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 || s.opened[0].challenges != 8 {
		t.Fatalf("%d messages, owners challenged %d times; want 10 and 8", len(msgs), s.opened[0].challenges)
	}
}

// pipelinedOwner's reply to round j waits, up to a deadline, until
// all S owners have been sent round j's challenge: a SplitProver that
// waits on one owner before it challenges the next stalls in round 1.
type pipelinedOwner struct {
	*localOwner
	sent   *atomic.Int64 // challenges sent to all S owners so far
	slices int
}

func (o *pipelinedOwner) Challenge(m Msg) error {
	o.sent.Add(1)
	return o.localOwner.Challenge(m)
}

func (o *pipelinedOwner) Msg() (Msg, error) {
	want := int64(o.challenges * o.slices)
	for deadline := time.Now().Add(time.Second); o.sent.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return Msg{}, fmt.Errorf("owner read after %d of %d challenges were sent", o.sent.Load(), want)
		}
	}
	return o.localOwner.Msg()
}

// TestSplitProverPipelinedBroadcast pins the broadcast: every owner is
// sent the challenge before the SplitProver waits on any reply, so the
// S owners fold side by side and a round costs one round trip.
func TestSplitProverPipelinedBroadcast(t *testing.T) {
	const u, slices = 1 << 6, 4
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(10))
	table := applied(t, ups, u)
	proto := newFk(t, u, 2)
	ref, _ := fkReference(t, proto, table, ups, 5)
	s := &fkSlices{proto: proto, table: table, slices: slices, version: func(int, int) uint64 { return 2 }}
	var sent atomic.Int64
	sp, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, func() ([]SplitOwner, error) {
		owners, err := s.open()
		for k := range owners {
			owners[k] = &pipelinedOwner{localOwner: owners[k].(*localOwner), sent: &sent, slices: slices}
		}
		return owners, err
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, _, err := runFk(t, proto, sp, ups, 5)
	if err != nil {
		t.Fatalf("pipelined owners: %v", err)
	}
	sameTranscript(t, "pipelined", msgs, ref)
}

// lyingOwner rewrites its n-th message, 0 being the opening.
type lyingOwner struct {
	*localOwner
	n, read int
	lie     func(Msg) Msg
}

func (o *lyingOwner) Msg() (Msg, error) {
	m, err := o.localOwner.Msg()
	if err == nil && o.read == o.n {
		m = o.lie(m)
	}
	o.read++
	return m, err
}

// TestSplitProverRefusesOwnerLies: an owner message of the wrong shape
// or holding a non-canonical element — in a head partial or among the
// leaves — is refused by the SplitProver with an error naming the
// slice, not folded into a message only the client's verifier would
// object to.
func TestSplitProverRefusesOwnerLies(t *testing.T) {
	const u, slices = 1 << 6, 2 // d = 6; the owners' 6th message is their leaves
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(11))
	table := applied(t, ups, u)
	proto := newFk(t, u, 2)
	for _, c := range []struct {
		name string
		n    int
		lie  func(Msg) Msg
		want string
	}{
		{"head partial ≥ p", 2, func(m Msg) Msg { m.Elems[0] = ^field.Elem(0); return m }, "slice 1 sent a non-canonical element"},
		{"leaf ≥ p", 5, func(m Msg) Msg { m.Elems[0] = ^field.Elem(0); return m }, "slice 1 sent a non-canonical element"},
		{"stray int", 3, func(m Msg) Msg { m.Ints = []uint64{7}; return m }, "slice 1 sent 1 ints"},
		{"two leaves", 5, func(m Msg) Msg { m.Elems = append(m.Elems, 1); return m }, "slice 1 sent 0 ints and 2 elems"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &fkSlices{proto: proto, table: table, slices: slices, version: func(int, int) uint64 { return 1 }}
			sp, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, func() ([]SplitOwner, error) {
				owners, err := s.open()
				owners[1] = &lyingOwner{localOwner: owners[1].(*localOwner), n: c.n, lie: c.lie}
				return owners, err
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := runFk(t, proto, sp, ups, 6); err == nil || errors.Is(err, ErrRejected) ||
				!strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want the SplitProver's %q", err, c.want)
			}
			_ = sp.Close()
			for k, o := range s.opened {
				if !o.finished {
					t.Fatalf("owner %d not finished", k)
				}
			}
		})
	}
}

// TestSplitCollapseBitIdentical: while every slice is sparse and its
// opening may ship its live pairs, the SplitProver collapses — it
// finishes the owners after the openings, challenges none, and proves
// every later round from the union of their pairs — and the transcript
// is still the single prover's, bit for bit, for every slice count
// (slice 1 of 2 holding no live pair included). An
// opening bound too small for the pairs, or one dense slice, keeps the
// head rounds, also bit-identical.
func TestSplitCollapseBitIdentical(t *testing.T) {
	const u = 1 << 10 // slices of 256 or 512 entries: sparse at up to 32 or 64 live pairs
	sparse := stream.UnitIncrements(u, 30, field.NewSplitMix64(12))
	low := stream.UnitIncrements(u/2, 30, field.NewSplitMix64(13)) // slice 1 of 2 empty
	oneDense := append(stream.UniformDeltas(u/4, 5, field.NewSplitMix64(14)), sparse...)
	for _, c := range []struct {
		name     string
		ups      []stream.Update
		slices   int
		maxWords int
		collapse bool
	}{
		{"sparse S=2", sparse, 2, 1 << 20, true},
		{"sparse S=4", sparse, 4, 1 << 20, true},
		{"one empty slice", low, 2, 1 << 20, true},
		{"opening bound", sparse, 2, 8, false},
		{"one dense slice", oneDense, 4, 1 << 20, false},
	} {
		for _, k := range []int{2, 3} {
			name := fmt.Sprintf("%s k=%d", c.name, k)
			proto := newFk(t, u, k)
			table := applied(t, c.ups, u)
			ref, refResult := fkReference(t, proto, table, c.ups, 21)
			s := &fkSlices{proto: proto, table: table, slices: c.slices, maxWords: c.maxWords,
				version: func(int, int) uint64 { return 3 }}
			sp, err := NewSplitProver(f61, u, sumcheck.Power{K: k}, s.open)
			if err != nil {
				t.Fatal(err)
			}
			msgs, got, err := runFk(t, proto, sp, c.ups, 21)
			if err != nil || got != refResult {
				t.Fatalf("%s: result %d, %v; want %d", name, got, err, refResult)
			}
			sameTranscript(t, name, msgs, ref)
			allFinished(t, s)
			if challenged := s.opened[0].challenges > 0; challenged == c.collapse {
				t.Fatalf("%s: owners challenged %d times, collapse %v", name, s.opened[0].challenges, c.collapse)
			}
		}
	}
}

// TestSplitProverRefusesMalformedPairs: live pairs an owner ships that
// are not its slice's — an index outside the slice, indices out of
// order, a non-canonical value, or a count of values that does not
// match the indices — are refused with a SliceError naming the slice.
func TestSplitProverRefusesMalformedPairs(t *testing.T) {
	const u, slices = 1 << 9, 2 // slice 1 owns pairs [128, 256)
	ups := stream.UnitIncrements(u, 20, field.NewSplitMix64(15))
	table := applied(t, ups, u)
	proto := newFk(t, u, 2)
	for _, c := range []struct {
		name string
		lie  func(Msg) Msg
		want string
	}{
		{"index outside the slice", func(m Msg) Msg { m.Ints[1] = 3; return m }, "shipped pair 3, outside its pairs [128, 256)"},
		{"indices out of order", func(m Msg) Msg { m.Ints[1], m.Ints[2] = m.Ints[2], m.Ints[1]; return m }, "after pair"},
		{"repeated index", func(m Msg) Msg { m.Ints[2] = m.Ints[1]; return m }, "after pair"},
		{"value ≥ p", func(m Msg) Msg { m.Elems[len(m.Elems)-1] = ^field.Elem(0); return m }, "sent a non-canonical element"},
		{"one value short", func(m Msg) Msg { m.Elems = m.Elems[:len(m.Elems)-1]; return m }, "sent an opening of"},
		{"one index more", func(m Msg) Msg { m.Ints = append(m.Ints, 255); return m }, "sent an opening of"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &fkSlices{proto: proto, table: table, slices: slices, maxWords: 1 << 20,
				version: func(int, int) uint64 { return 1 }}
			sp, err := NewSplitProver(f61, u, sumcheck.Power{K: 2}, func() ([]SplitOwner, error) {
				owners, err := s.open()
				owners[1] = &lyingOwner{localOwner: owners[1].(*localOwner), lie: c.lie}
				return owners, err
			})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = runFk(t, proto, sp, ups, 6)
			var se *SliceError
			if !errors.As(err, &se) || se.Slice != 1 || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want slice 1's SliceError saying %q", err, c.want)
			}
			_ = sp.Close()
			allFinished(t, s)
		})
	}
}
