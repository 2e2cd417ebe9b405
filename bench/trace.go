package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from this package only, around calls into each layer's public
// functions; nothing inside the program under test is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // shared by every span of one op, twin included
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`  // query kind, on roots
	Round  int    `json:"round,omitempty"` // conversation round, on per-round spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// laneTrace is one lane's span buffer. A nil *laneTrace is the untraced
// run: every method is a no-op, so op code is written once. One lane
// touches its buffer from one goroutine at a time (the wire client's
// conversation goroutine runs while the lane blocks in Wait), so no
// lock is needed.
type laneTrace struct {
	t0    time.Time
	lane  int
	spans []span
	op    int
}

func (lt *laneTrace) now() int64 { return int64(time.Since(lt.t0)) }

// nextOp starts a new op id; roots and twin roots begun afterwards
// carry it.
func (lt *laneTrace) nextOp() {
	if lt != nil {
		lt.op++
	}
}

// begin opens a span under parent (0 = root) and returns its id.
func (lt *laneTrace) begin(parent int, name string) int {
	if lt == nil {
		return 0
	}
	lt.spans = append(lt.spans, span{
		ID: len(lt.spans) + 1, Parent: parent, Op: lt.op<<4 | lt.lane,
		Name: name, Start: lt.now(),
	})
	return len(lt.spans)
}

func (lt *laneTrace) end(id int) {
	if lt != nil {
		lt.spans[id-1].End = lt.now()
	}
}

// add records a per-round span whose interval was timed by the caller.
func (lt *laneTrace) add(parent int, name string, round int, start, end int64) {
	if lt == nil {
		return
	}
	lt.spans = append(lt.spans, span{
		ID: len(lt.spans) + 1, Parent: parent, Op: lt.op<<4 | lt.lane,
		Name: name, Round: round, Start: start, End: end,
	})
}

// root opens a root span ("op" or "twin") for a query kind.
func (lt *laneTrace) root(name, kind string) int {
	id := lt.begin(0, name)
	if lt != nil {
		lt.spans[id-1].Kind = kind
	}
	return id
}

// tracedVerifier times the verifier side of a live conversation from
// outside the wire client: each Begin/Step call is a verifier.step
// span, and the gap since the previous call returned is a wire.wait
// span (frame write, network, the remote prover's step, frame read). It
// also keeps the challenges it issued so the twin prover can be
// replayed without a second verifier.
type tracedVerifier struct {
	v          core.VerifierSession
	lt         *laneTrace
	parent     int
	last       int64 // end of the previous call (or the query start)
	round      int
	challenges []core.Msg
}

func (tv *tracedVerifier) observe(msg core.Msg, begin bool) (core.Msg, bool, error) {
	start := tv.lt.now()
	tv.lt.add(tv.parent, "wire.wait", tv.round, tv.last, start)
	var (
		ch   core.Msg
		done bool
		err  error
	)
	if begin {
		ch, done, err = tv.v.Begin(msg)
	} else {
		ch, done, err = tv.v.Step(msg)
	}
	tv.last = tv.lt.now()
	tv.lt.add(tv.parent, "verifier.step", tv.round, start, tv.last)
	tv.round++
	if err == nil && !done {
		tv.challenges = append(tv.challenges, ch)
	}
	return ch, done, err
}

func (tv *tracedVerifier) Begin(opening core.Msg) (core.Msg, bool, error) {
	return tv.observe(opening, true)
}

func (tv *tracedVerifier) Step(resp core.Msg) (core.Msg, bool, error) {
	return tv.observe(resp, false)
}

// replayProver drives a twin prover with the challenges a live
// conversation issued, recording prover.open and prover.step spans.
func replayProver(lt *laneTrace, parent int, p core.ProverSession, challenges []core.Msg) error {
	id := lt.begin(parent, "prover.open")
	_, err := p.Open()
	lt.end(id)
	if err != nil {
		return err
	}
	for r, ch := range challenges {
		start := lt.now()
		_, err := p.Step(ch)
		lt.add(parent, "prover.step", r+1, start, lt.now())
		if err != nil {
			return err
		}
	}
	return nil
}

// selfTimes folds one lane's spans into per-name self time (a span's
// duration minus the part its children cover), split by whether the
// span hangs under a live "op" root or a "twin" root, and returns the
// summed live root duration.
func selfTimes(spans []span) (live, twin map[string]int64, rootNs int64) {
	live, twin = map[string]int64{}, map[string]int64{}
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	rootOf := make([]int, len(spans)+1)
	for _, s := range spans { // parents precede children
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
		}
	}
	for _, s := range spans {
		self := s.End - s.Start - child[s.ID]
		into := live
		if spans[rootOf[s.ID]-1].Name == "twin" {
			into = twin
		}
		into[s.Name] += self
		if s.Parent == 0 && s.Name == "op" {
			rootNs += s.End - s.Start
		}
	}
	return live, twin, rootNs
}

type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeSpans merges the lanes (ids made unique by a per-lane offset) and
// writes the span file.
func writeSpans(path, workload string, seed uint64, lanes []*laneTrace) error {
	out := spanFile{Workload: workload, Seed: seed, Spans: []span{}}
	off := 0
	for _, lt := range lanes {
		for _, s := range lt.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			out.Spans = append(out.Spans, s)
		}
		off += len(lt.spans)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
