package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRefusals: bad flags are errors, not exits, and are refused
// before anything listens.
func TestRunRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-max-logu", "0"}, "-max-logu 0 outside"},
		{[]string{"-max-logu", "62"}, "-max-logu 62 outside"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error()+out.String(), tc.want) {
			t.Errorf("run %v: %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}
