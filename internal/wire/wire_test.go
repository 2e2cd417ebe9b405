package wire

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

var freshSeq atomic.Uint64

// openFresh is the "upload, then query" preamble: it attaches c to a
// dataset no other test (or earlier call) has touched, ingests ups into
// it, and returns the name.
func openFresh(t testing.TB, c *Client, u uint64, ups []stream.Update) string {
	t.Helper()
	name := fmt.Sprintf("%s#%d", t.Name(), freshSeq.Add(1))
	if n, err := c.OpenDataset(name, u); err != nil || n != 0 {
		t.Fatalf("open of fresh dataset %q: %d updates, err %v", name, n, err)
	}
	if len(ups) > 0 {
		if _, err := c.Ingest(ups); err != nil {
			t.Fatalf("ingest into %q: %v", name, err)
		}
	}
	return name
}
