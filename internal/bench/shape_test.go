package bench

import (
	"crypto/rand"
	"testing"

	"maacs/internal/pairing"
)

// TestPaperShapesOnTestCurve is a regression test for the paper's
// hardware-independent evaluation claims, run on the fast curve with enough
// trials to drown out scheduler noise. It is the CI-grade version of the
// verdicts cmd/maacs-bench prints at paper scale.
func TestPaperShapesOnTestCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-shape test skipped in -short mode")
	}
	spec := SweepSpec{
		Params: pairing.Test(),
		Rnd:    rand.Reader,
		Xs:     []int{2, 4, 6},
		Fixed:  4,
		Trials: 20, // the paper's trial count
	}
	encA, err := SweepAuthorities(spec, OpEncrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := encA.CheckShape(OpEncrypt); !ok {
		t.Errorf("Fig 3(a) shape violated: %s", verdict)
	}
	decA, err := SweepAuthorities(spec, OpDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := decA.CheckShape(OpDecrypt); !ok {
		t.Errorf("Fig 3(b) shape violated: %s", verdict)
	}
	encK, err := SweepAttrs(spec, OpEncrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := encK.CheckShape(OpEncrypt); !ok {
		t.Errorf("Fig 4(a) shape violated: %s", verdict)
	}
	decK, err := SweepAttrs(spec, OpDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := decK.CheckShape(OpDecrypt); !ok {
		t.Errorf("Fig 4(b) shape violated: %s", verdict)
	}

	// Linearity sanity: encryption time at x=6 must be meaningfully larger
	// than at x=2 for both schemes (both are Θ(l)).
	first, last := encA.Points[0], encA.Points[len(encA.Points)-1]
	if last.Ours <= first.Ours || last.Lewko <= first.Lewko {
		t.Errorf("encryption not growing with workload: first=%+v last=%+v", first, last)
	}
}

// TestRevocationShapesOnTestCurve pins the revocation-efficiency claims.
func TestRevocationShapesOnTestCurve(t *testing.T) {
	res, err := MeasureRevocation(Config{
		Params:            pairing.Test(),
		Authorities:       2,
		AttrsPerAuthority: 3,
		Rnd:               rand.Reader,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := res.CheckShape(); !ok {
		t.Errorf("revocation shape violated: %s", verdict)
	}
	if res.PirrettiRefresh <= 0 || res.PirrettiUsers == 0 {
		t.Error("pirretti baseline not measured")
	}
}
