package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// TestPairMatchesReference pins the kernel (projective NAF Miller loop +
// Lucas final exponentiation) bit-identical to the affine reference on
// random subgroup points.
func TestPairMatchesReference(t *testing.T) {
	p := Test()
	g := p.Generator()
	f := func(a64, b64 uint64) bool {
		a := new(big.Int).SetUint64(a64)
		b := new(big.Int).SetUint64(b64)
		ga, gb := g.Exp(a), g.Exp(b)
		opt := p.MustPair(ga, gb)
		ref, err := p.PairReference(ga, gb)
		if err != nil {
			return false
		}
		return opt.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// limbLucas runs the fixed-width Lucas ladder on a big.Int-backed unitary
// element and converts the result back.
func limbLucas(p *Params, x fp2, k *big.Int) fp2 {
	c := p.fpc
	var xm, zm fp2m
	c.fp2mFromFp2(&xm, x)
	c.fp2mExpUnitaryLucas(&zm, &xm, k)
	return c.fp2mToFp2(&zm)
}

// TestLucasMatchesUnitaryExp pins the two consumers of the Lucas ladder
// against their square-and-multiply references: the final exponentiation
// (a cofactor-sized exponent on unitary values outside the order-R
// subgroup) on raw Miller values, and GT.Exp on random subgroup elements.
func TestLucasMatchesUnitaryExp(t *testing.T) {
	p := Test()
	c := p.fpc
	g := p.Generator()
	for i := 0; i < 6; i++ {
		a, _ := p.RandomScalar(rand.Reader)
		b, _ := p.RandomScalar(rand.Reader)
		f := p.millerMont(g.Exp(a).pt, g.Exp(b).pt)
		got := p.finalExpMont(&f)
		if !c.fp2mToFp2(&got).equal(p.finalExpReference(c.fp2mToFp2(&f))) {
			t.Fatalf("iteration %d: final exponentiation ≠ square-and-multiply reference", i)
		}
		e := p.GTGenerator().Exp(a)
		if !bytes.Equal(e.Exp(b).Marshal(), e.ExpReference(b).Marshal()) {
			t.Fatalf("iteration %d: GT.Exp ≠ GT.ExpReference", i)
		}
	}
}

// TestLucasRealBases covers the b = 0 special case of the limb ladder: the
// only unitary elements with zero imaginary part are ±1.
func TestLucasRealBases(t *testing.T) {
	p := Test()
	onePos := fp2{a: big.NewInt(1), b: new(big.Int)}
	oneNeg := fp2{a: new(big.Int).Sub(p.Q, one), b: new(big.Int)}
	for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(5), big.NewInt(-3), new(big.Int).Set(p.H)} {
		if got := limbLucas(p, onePos, k); !got.isOne() {
			t.Fatalf("1^%v ≠ 1", k)
		}
		got := limbLucas(p, oneNeg, k)
		want := p.fp2ExpUnitary(oneNeg, k)
		if !got.equal(want) {
			t.Fatalf("(−1)^%v: lucas ≠ reference", k)
		}
	}
}

// TestFp2ExpNegativeExponents is the regression for the folded sign
// handling: one pass, base inverted (or conjugated) up front.
func TestFp2ExpNegativeExponents(t *testing.T) {
	p := Test()
	gt := p.GTGenerator()
	x := gt.Exp(big.NewInt(31337)).v
	for _, k := range []*big.Int{big.NewInt(-1), big.NewInt(-2), big.NewInt(-31337), new(big.Int).Neg(p.R)} {
		pos := new(big.Int).Neg(k)
		wantGeneric := p.fp2Inv(p.fp2Exp(x, pos))
		if got := p.fp2Exp(x, k); !got.equal(wantGeneric) {
			t.Fatalf("fp2Exp(x, %v) ≠ fp2Exp(x, %v)⁻¹", k, pos)
		}
		wantUnitary := p.fp2Conj(p.fp2ExpUnitary(x, pos))
		if got := p.fp2ExpUnitary(x, k); !got.equal(wantUnitary) {
			t.Fatalf("fp2ExpUnitary(x, %v) ≠ conj(fp2ExpUnitary(x, %v))", k, pos)
		}
		if got := limbLucas(p, x, k); !got.equal(wantUnitary) {
			t.Fatalf("fp2mExpUnitaryLucas(x, %v) ≠ conj(...)", k)
		}
	}
}

// TestScalarNormalization checks that every exponentiation entry point
// reduces its scalar before walking a ladder: zero, negative, and oversized
// exponents land exactly on the reduced residue's result.
func TestScalarNormalization(t *testing.T) {
	p := Test()
	g := p.Generator()
	gt := p.GTGenerator()
	table := p.PrepareExp(g)
	small := big.NewInt(12345)
	cases := []struct {
		name string
		k    *big.Int
		want *big.Int // equivalent scalar in [0, R)
	}{
		{"zero", new(big.Int), new(big.Int)},
		{"negative", new(big.Int).Neg(small), new(big.Int).Sub(p.R, small)},
		{"exactly R", new(big.Int).Set(p.R), new(big.Int)},
		{"R plus k", new(big.Int).Add(p.R, small), small},
		{"huge", new(big.Int).Mul(p.R, p.H), new(big.Int).Mod(new(big.Int).Mul(p.R, p.H), p.R)},
		{"negative huge", new(big.Int).Neg(new(big.Int).Mul(p.H, big.NewInt(7))), new(big.Int).Mod(new(big.Int).Neg(new(big.Int).Mul(p.H, big.NewInt(7))), p.R)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := g.Exp(tc.want)
			if got := g.Exp(tc.k); !got.Equal(want) {
				t.Errorf("G.Exp(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := g.ExpReference(tc.k); !got.Equal(want) {
				t.Errorf("G.ExpReference(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := table.Exp(tc.k); !got.Equal(want) {
				t.Errorf("ExpTable.Exp(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := p.FixedBaseExp(tc.k); !got.Equal(p.Generator().Exp(tc.want)) {
				t.Errorf("FixedBaseExp(%v) ≠ g^%v", tc.k, tc.want)
			}
			wantT := gt.Exp(tc.want)
			if got := gt.Exp(tc.k); !got.Equal(wantT) {
				t.Errorf("GT.Exp(%v) ≠ GT.Exp(%v)", tc.k, tc.want)
			}
			if got := gt.ExpReference(tc.k); !got.Equal(wantT) {
				t.Errorf("GT.ExpReference(%v) ≠ GT.Exp(%v)", tc.k, tc.want)
			}
		})
	}
}

// TestNAFDigits checks the recoding invariants: the digits reconstruct the
// scalar, no two adjacent digits are nonzero, and the leading digit is 1.
func TestNAFDigits(t *testing.T) {
	f := func(k64 uint64) bool {
		if k64 == 0 {
			return nafDigits(new(big.Int)) == nil
		}
		k := new(big.Int).SetUint64(k64)
		digits := nafDigits(k)
		if len(digits) == 0 || digits[0] != 1 {
			return false
		}
		acc := new(big.Int)
		prevNonzero := false
		for _, d := range digits {
			acc.Lsh(acc, 1)
			acc.Add(acc, big.NewInt(int64(d)))
			if d != 0 && prevNonzero {
				return false // adjacency violation
			}
			prevNonzero = d != 0
		}
		return acc.Cmp(k) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if nafDigits(big.NewInt(-5)) != nil {
		t.Error("nafDigits accepted a negative scalar")
	}
}

// TestBatchInvert checks the batch-inverted normalization of Jacobian
// points, which builds every comb, against normalizing each point on its
// own.
func TestBatchInvert(t *testing.T) {
	p := Test()
	c := p.fpc
	g := c.montFromPoint(p.gen)
	js := make([]montJac, 37)
	acc := montJac{x: g.x, y: g.y, z: c.one}
	for i := range js {
		js[i] = acc
		c.montJacDouble(&acc)
		c.montJacAddAffine(&acc, &g)
	}
	out := make([]montAffine, len(js))
	c.montJacBatchToAffine(js, out)
	for i := range js {
		want := c.montJacToPoint(&js[i])
		got := point{x: c.toBig(&out[i].x), y: c.toBig(&out[i].y)}
		if !got.equal(want) {
			t.Fatalf("point %d: batch normalization ≠ single normalization", i)
		}
	}
	c.montJacBatchToAffine(nil, nil) // must not panic
}

// TestKernelSharedStateConcurrency hammers one shared *Params, one shared
// *PreparedG, one shared *ExpTable and the lazily built generator comb from
// many goroutines. The kernel keeps its temporaries on the stack, so all
// shared state must stay read-only after construction; the -race runs in
// scripts/check.sh turn any aliasing bug into a hard failure, and the
// determinism check catches silent corruption even without the race
// detector.
func TestKernelSharedStateConcurrency(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	ga := g.Exp(a)
	pre := p.Prepare(ga)
	table := p.PrepareExp(ga)

	const workers = 8
	const iters = 12
	scalars := make([]*big.Int, workers)
	wantPair := make([]*GT, workers)
	wantExp := make([]*G, workers)
	for w := range scalars {
		k, _ := p.RandomScalar(rand.Reader)
		scalars[w] = k
		wantPair[w] = p.MustPair(ga, g.Exp(k))
		wantExp[w] = ga.Exp(k)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := scalars[w]
			for i := 0; i < iters; i++ {
				gk := g.Exp(k)
				e1 := p.MustPair(ga, gk)
				e2, err := pre.Pair(gk)
				if err != nil {
					errs <- err
					return
				}
				if !e1.Equal(wantPair[w]) || !e2.Equal(wantPair[w]) {
					errs <- errMismatch
					return
				}
				if !table.Exp(k).Equal(wantExp[w]) || !p.FixedBaseExp(k).Mul(p.OneG()).Equal(p.Generator().Exp(k)) {
					errs <- errMismatch
					return
				}
				if !wantPair[w].Exp(k).Equal(wantPair[w].ExpReference(k)) {
					errs <- errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string {
	return "concurrent kernel use produced a result differing from the serial baseline"
}
