package sip_test

import (
	"errors"
	"fmt"

	"repro/internal/stream"
	"repro/sip"
)

// ExampleNewTicket is the package doc's typical use: the data owner
// draws a ticket before the stream, feeds it once, and picks the query
// only when it asks.
func ExampleNewTicket() {
	const u = 1 << 10
	f := sip.Mersenne()
	updates := stream.UnitIncrements(u, 4000, sip.NewSeededRNG(1))
	kinds := []sip.QueryKind{sip.QuerySelfJoinSize, sip.QueryRangeSum}
	t, _ := sip.NewTicket(f, u, kinds, sip.NewSeededRNG(2))
	ds, _ := sip.NewDataset(f, u, 0)
	for _, up := range updates {
		_ = t.Observe(up)
	}
	_ = ds.Ingest(updates)
	q := sip.QueryParams{A: 10, B: 99}
	v, _ := t.Spend(sip.QueryRangeSum, q)
	p, _ := ds.Snapshot().NewProver(sip.QueryRangeSum, q)
	if _, err := sip.Run(p, v); err != nil {
		fmt.Println("rejected:", err)
		return
	}
	ans, _ := sip.AnswerOf(sip.QueryRangeSum, v)
	var want int64
	for _, up := range updates {
		if up.Index >= q.A && up.Index <= q.B {
			want += up.Delta
		}
	}
	fmt.Println(ans.Int == want)
	_, err := t.Spend(sip.QuerySelfJoinSize, sip.QueryParams{})
	fmt.Println(errors.Is(err, sip.ErrTicketSpent))
	// Output:
	// true
	// true
}
