package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusals: a missing table and a malformed one-shot spec are
// errors, not exits, and are refused before any shard is dialled.
func TestRunRefusals(t *testing.T) {
	table := filepath.Join(t.TempDir(), "table.json")
	if err := os.WriteFile(table, []byte(`{"Shards": [{"Name": "s1", "Addr": "127.0.0.1:1"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-table is required"},
		{[]string{"-rebalance-slice", "big:1=shard3"}, "-table is required"},
		{[]string{"-table", table, "-rebalance-slice", "big=shard3"}, "want dataset:slice=targetShard"},
		{[]string{"-table", table, "-rebalance-slice", "big:x=shard3"}, `slice index "x"`},
		{[]string{"-table", table, "-rebalance-slice", "big:1"}, "want name=target"},
		{[]string{"-table", filepath.Join(t.TempDir(), "missing.json")}, "routing table"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...), &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}
