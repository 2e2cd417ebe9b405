package wire

import (
	"errors"
	"testing"

	"repro/internal/wire/frames"
)

// flowRule is one row of the connection state machine's contract: in
// which of the two states a client→server frame type is legal, and
// whether accepting it attaches the connection.
type flowRule struct {
	atStart, attached, attaches bool
}

// flowRules lists every frame type FlowState accepts in some state.
// Every other byte value — server→client frames, unknown types, and the
// retired 0x01 / 0x03–0x07 — is refused in both states.
var flowRules = map[byte]flowRule{
	frames.Open:           {atStart: true, attached: true, attaches: true},
	frames.OpenSlice:      {atStart: true, attached: true, attaches: true},
	frames.Updates:        {attached: true},
	frames.CheckUpdates:   {attached: true},
	frames.QueryCh:        {attached: true},
	frames.ChallengeCh:    {attached: true},
	frames.FinishCh:       {attached: true},
	frames.ProofReqCh:     {attached: true},
	frames.PartialQueryCh: {attached: true},
	frames.Handoff:        {atStart: true, attached: true},
	frames.Adopt:          {atStart: true, attached: true},
	frames.StatsReq:       {atStart: true, attached: true},
}

// TestFlowStateTable walks every frame type through both states: a
// legal frame is accepted and moves the state only as its rule says; an
// illegal one is refused typed (ErrProtocol) and moves nothing.
func TestFlowStateTable(t *testing.T) {
	for typ := 0; typ < 256; typ++ {
		rule := flowRules[byte(typ)]
		for _, from := range []bool{false, true} {
			f := FlowState{attached: from}
			err := f.Advance(byte(typ))
			legal := rule.atStart
			if from {
				legal = rule.attached
			}
			if legal {
				if err != nil {
					t.Errorf("frame 0x%02x (attached=%v) refused: %v", typ, from, err)
				}
				if want := from || rule.attaches; f.attached != want {
					t.Errorf("frame 0x%02x (attached=%v) left attached=%v, want %v", typ, from, f.attached, want)
				}
				continue
			}
			if !errors.Is(err, ErrProtocol) {
				t.Errorf("frame 0x%02x (attached=%v) = %v, want ErrProtocol", typ, from, err)
			}
			if f.attached != from {
				t.Errorf("refused frame 0x%02x moved the state from attached=%v to %v", typ, from, f.attached)
			}
		}
	}
}

// FuzzFlowState feeds random frame-type sequences to one state machine:
// Advance never panics, every refusal is ErrProtocol, and the state
// only ever moves start → attached, and only on an accepted open.
func FuzzFlowState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frames.Open, frames.Updates, frames.QueryCh, frames.ChallengeCh, frames.FinishCh})
	f.Add([]byte{frames.Updates})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{frames.StatsReq, frames.OpenSlice, 0x04, frames.Open, 0xff})
	f.Fuzz(func(t *testing.T, seq []byte) {
		var fl FlowState
		for i, typ := range seq {
			before := fl.attached
			err := fl.Advance(typ)
			if err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("step %d: frame 0x%02x refused untyped: %v", i, typ, err)
			}
			if before && !fl.attached {
				t.Fatalf("step %d: frame 0x%02x detached the connection", i, typ)
			}
			if !before && fl.attached && (err != nil || (typ != frames.Open && typ != frames.OpenSlice)) {
				t.Fatalf("step %d: frame 0x%02x attached the connection (err %v)", i, typ, err)
			}
		}
	})
}
