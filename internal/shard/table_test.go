package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentFlipsPersist flips 16 routes at once with TablePath set,
// 20 times over. Every flip must return nil, and the file must then load
// with every flipped route: concurrent saves may neither collide on one
// temporary file, tear the table, nor land an older snapshot after a
// newer one.
func TestConcurrentFlipsPersist(t *testing.T) {
	const flips, reps = 16, 20
	for rep := 0; rep < reps; rep++ {
		path := filepath.Join(t.TempDir(), "table.json")
		tbl := &Table{Shards: []ShardInfo{{Name: "s1", Addr: "127.0.0.1:1"}, {Name: "s2", Addr: "127.0.0.1:2"}}}
		if err := tbl.Save(path); err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(tbl)
		if err != nil {
			t.Fatal(err)
		}
		r.TablePath = path
		errs := make([]error, flips)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = r.flipRoute(fmt.Sprintf("d%d", i), "s2")
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rep %d: flip %d: %v", rep, i, err)
			}
		}
		got, err := LoadTable(path)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		for i := range errs {
			if ds := fmt.Sprintf("d%d", i); got.Routes[ds] != "s2" {
				t.Fatalf("rep %d: the file lost the route of %s: %v", rep, ds, got.Routes)
			}
		}
	}
}
