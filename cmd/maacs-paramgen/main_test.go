package main

import (
	"errors"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestParamgenProducesValidConstants(t *testing.T) {
	var sb strings.Builder
	if err := run(40, 80, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"r: 40 bits", "Q  =", "R  =", "H  =", "GX =", "GY ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParamgenRejectsBadSizes covers sizes below the minimum and a field
// wider than the 576-bit limit of the pairing arithmetic; both fail with
// ErrInvalidParams before any prime search and print nothing.
func TestParamgenRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		rBits, qBits int
		want         string
	}{
		{8, 16, "rBits"},
		{160, 640, "576-bit"},
	} {
		var sb strings.Builder
		err := run(tc.rBits, tc.qBits, &sb)
		if !errors.Is(err, pairing.ErrInvalidParams) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%d, %d) = %v, want ErrInvalidParams naming %q", tc.rBits, tc.qBits, err, tc.want)
		}
		if sb.Len() != 0 {
			t.Fatalf("rejected run(%d, %d) printed constants:\n%s", tc.rBits, tc.qBits, sb.String())
		}
	}
}
