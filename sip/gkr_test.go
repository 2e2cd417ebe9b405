package sip_test

import (
	"testing"

	"repro/sip"
)

// TestCircuitFamilies pins the public registry listing.
func TestCircuitFamilies(t *testing.T) {
	fams := sip.CircuitFamilies()
	want := map[string]bool{sip.CircuitF2: false, sip.CircuitCount: false, sip.CircuitMatMul: false}
	for _, name := range fams {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %q missing from CircuitFamilies() = %v", name, fams)
		}
	}
}
