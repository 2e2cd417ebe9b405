package wire

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestConcurrentUploaderFalseAlarm pins a known gap: an interactive
// QueryCh carries no dataset version or update count, so an honest
// server proves over whatever the dataset holds when the query lands.
// Connection A ingests and gets its ack; connection B then ingests one
// update; A's F2 query, whose verifier saw only A's updates, is rejected
// — a concurrent uploader's batch is indistinguishable from a lie. When
// QueryCh carries the ticket's pin and a stale pin gets the typed "not
// current" refusal, this assertion flips.
func TestConcurrentUploaderFalseAlarm(t *testing.T) {
	const u = 1 << 10
	addr, stop := startServer(t, nil)
	defer stop()
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ups := stream.UnitIncrements(u, 500, field.NewSplitMix64(1700))
	tk, err := engine.NewTicket(f61, u, []engine.QueryKind{QuerySelfJoinSize}, field.NewSplitMix64(1701))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := tk.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	name := openFresh(t, a, u, ups)
	if _, err := b.OpenDataset(name, u); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Ingest([]stream.Update{{Index: 3, Delta: 1}}); err != nil || n != uint64(len(ups))+1 {
		t.Fatalf("B's ingest: count %d, err %v", n, err)
	}
	v, err := tk.Spend(QuerySelfJoinSize, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query(QuerySelfJoinSize, QueryParams{}, v); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("A's query after B's batch: %v, want core.ErrRejected (the false alarm this test pins)", err)
	}
}
