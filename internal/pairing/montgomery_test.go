package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// checkOracle pins every public pairing entry point byte for byte against
// the reference oracle on g^a, g^b and a third scalar k: Pair, the prepared
// walk and PairProd against PairReference, G.Exp and both comb paths
// against G.ExpReference, GT.Exp against GT.ExpReference, and the G
// decoder on the encoding it produced. The scalars may be zero, negative or
// ≥ R, so scalar normalization is checked along the way.
func checkOracle(t *testing.T, p *Params, a, b, k *big.Int) {
	t.Helper()
	g := p.Generator()
	ga, gb := g.ExpReference(a), g.ExpReference(b)
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s disagrees with the reference oracle (a=%v b=%v k=%v)", what, a, b, k)
		}
	}
	same("G.Exp", g.Exp(a).Marshal(), ga.Marshal())
	same("FixedBaseExp", p.FixedBaseExp(b).Marshal(), gb.Marshal())
	same("ExpTable.Exp", p.PrepareExp(ga).Exp(k).Marshal(), ga.ExpReference(k).Marshal())
	ref, err := p.PairReference(ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	same("Pair", p.MustPair(ga, gb).Marshal(), ref.Marshal())
	pp, err := p.Prepare(ga).Pair(gb)
	if err != nil {
		t.Fatal(err)
	}
	same("PreparedG.Pair", pp.Marshal(), ref.Marshal())
	refBA, err := p.PairReference(gb, ga)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := p.PairProd([]*G{ga, gb}, []*G{gb, ga})
	if err != nil {
		t.Fatal(err)
	}
	same("PairProd", prod.Marshal(), ref.Mul(refBA).Marshal())
	same("GT.Exp", ref.Exp(k).Marshal(), ref.ExpReference(k).Marshal())
	dec, err := p.UnmarshalG(ga.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	same("UnmarshalG", dec.Marshal(), ga.Marshal())
}

// TestPairMatchesAllKernels pins the Montgomery kernel against the
// reference kernel (the oracle) on a spread of scalars at test scale.
func TestPairMatchesAllKernels(t *testing.T) {
	p := Test()
	for _, sc := range [][3]int64{{98765, 43210, 7}, {1, 1, 1}, {2, 3, -5}, {7919, 7919, 0}, {0, 4, 9}} {
		checkOracle(t, p, big.NewInt(sc[0]), big.NewInt(sc[1]), big.NewInt(sc[2]))
	}
	checkOracle(t, p, new(big.Int).Sub(p.R, one), new(big.Int).Add(p.R, two), new(big.Int).Set(p.H))
}

// TestPairMatchesAllKernelsPaperScale repeats the oracle pin at the 513-bit
// default field, where the Montgomery context runs nine limbs.
func TestPairMatchesAllKernelsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale reference oracle in -short mode")
	}
	p := Default()
	k, err := p.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, p, big.NewInt(31337), big.NewInt(271828), k)
}

// TestSerializationByteIdenticalAcrossKernels is the wire-format guard: the
// bytes G.Marshal and GT.Marshal emit for kernel results equal those of the
// reference oracle, and UnmarshalG / UnmarshalGT round-trip them exactly —
// the Montgomery↔canonical conversion at the boundary is exact.
func TestSerializationByteIdenticalAcrossKernels(t *testing.T) {
	p := Test()
	for i := int64(0); i < 16; i++ {
		k := new(big.Int).Mul(big.NewInt(i), big.NewInt(999983))
		gBytes := p.Generator().Exp(k).Marshal()
		gtBytes := p.GTGenerator().Exp(k).Marshal()
		if !bytes.Equal(gBytes, p.Generator().ExpReference(k).Marshal()) {
			t.Fatalf("k=%v: G bytes differ from the reference", k)
		}
		if !bytes.Equal(gtBytes, p.GTGenerator().ExpReference(k).Marshal()) {
			t.Fatalf("k=%v: GT bytes differ from the reference", k)
		}
		g, err := p.UnmarshalG(gBytes)
		if err != nil {
			t.Fatalf("k=%v: UnmarshalG: %v", k, err)
		}
		if !bytes.Equal(g.Marshal(), gBytes) {
			t.Fatalf("k=%v: G round trip drifted", k)
		}
		if i != 0 { // zero GT exponent marshals to 1, still valid
			gt, err := p.UnmarshalGT(gtBytes)
			if err != nil {
				t.Fatalf("k=%v: UnmarshalGT: %v", k, err)
			}
			if !bytes.Equal(gt.Marshal(), gtBytes) {
				t.Fatalf("k=%v: GT round trip drifted", k)
			}
		}
	}
}

// TestJacobianMatchesAffineScalarMult pins the Montgomery NAF ladder
// against the affine double-and-add oracle on raw (unreduced) scalars.
func TestJacobianMatchesAffineScalarMult(t *testing.T) {
	p := Test()
	g := p.gen
	f := func(k64 uint64) bool {
		k := new(big.Int).SetUint64(k64)
		return p.mulScalarMont(g, k).equal(p.mulScalarAffine(g, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestJacobianEdgeCases(t *testing.T) {
	p := Test()
	g := p.gen
	cases := []*big.Int{
		new(big.Int),                         // 0 → ∞
		big.NewInt(1),                        // 1 → g
		big.NewInt(2),                        // doubling only
		big.NewInt(3),                        // double + add
		new(big.Int).Sub(p.R, big.NewInt(1)), // r−1 → −g
		new(big.Int).Set(p.R),                // r → ∞
		new(big.Int).Add(p.R, big.NewInt(1)), // r+1 → g
		new(big.Int).Set(p.H),                // the cofactor (raw, > r)
	}
	for _, k := range cases {
		want := p.mulScalarAffine(g, k)
		got := p.mulScalarMont(g, k)
		if !got.equal(want) {
			t.Fatalf("k=%v: jacobian %v ≠ affine %v", k, got, want)
		}
	}
	// Infinity base.
	if !p.mulScalarMont(infinity(), big.NewInt(7)).inf {
		t.Fatal("7·∞ ≠ ∞")
	}
	// Two-torsion base: (0,0) doubles to ∞.
	twoTor := point{x: new(big.Int), y: new(big.Int)}
	if !p.mulScalarMont(twoTor, big.NewInt(2)).inf {
		t.Fatal("2·(0,0) ≠ ∞ in jacobian path")
	}
	if !p.mulScalarMont(twoTor, big.NewInt(3)).equal(twoTor) {
		t.Fatal("3·(0,0) ≠ (0,0) in jacobian path")
	}
}

func TestJacAddAffineOppositePoints(t *testing.T) {
	p := Test()
	c := p.fpc
	g := c.montFromPoint(p.gen)
	negG := c.montFromPoint(p.neg(p.gen))
	j := montJac{x: g.x, y: g.y, z: c.one}
	c.montJacAddAffine(&j, &negG)
	if !c.montJacIsInf(&j) {
		t.Fatal("g + (−g) ≠ ∞")
	}
	// Same point through mixed addition must fall back to doubling.
	j = montJac{x: g.x, y: g.y, z: c.one}
	c.montJacAddAffine(&j, &g)
	if !c.montJacToPoint(&j).equal(p.double(p.gen)) {
		t.Fatal("mixed add of equal points ≠ doubling")
	}
}

func TestJacRoundTrip(t *testing.T) {
	p := Test()
	c := p.fpc
	f := func(k64 uint64) bool {
		pt := p.mulScalarAffine(p.gen, new(big.Int).SetUint64(k64))
		if pt.inf {
			return true
		}
		m := c.montFromPoint(pt)
		return c.montJacToPoint(&montJac{x: m.x, y: m.y, z: c.one}).equal(pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if !c.montJacToPoint(&montJac{}).inf {
		t.Fatal("∞ round trip failed")
	}
}

// TestHotPathZeroBigIntAllocs pins the allocation contract of the
// Montgomery kernel at paper scale: the field primitives are allocation-free
// and a full Pair / prepared Pair performs only the handful of fixed
// boundary conversions (fp2m→fp2 plus the result wrapper) — zero per-step
// big.Int churn. The -benchmem benchmarks show the same numbers; this test
// fails the build if they regress.
func TestHotPathZeroBigIntAllocs(t *testing.T) {
	p := Default()
	c := p.fpc
	var x, y, z fpElement
	c.fromBig(&x, big.NewInt(123456789))
	c.fromBig(&y, big.NewInt(987654321))
	if a := testing.AllocsPerRun(100, func() { c.mul(&z, &x, &y) }); a != 0 {
		t.Fatalf("fpMul allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.square(&z, &x) }); a != 0 {
		t.Fatalf("fpSquare allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(10, func() { c.inv(&z, &x) }); a != 0 {
		t.Fatalf("fpInv allocates %v/op", a)
	}
	var xm, ym, zm fp2m
	xm.a, xm.b, ym.a, ym.b = x, y, y, x
	if a := testing.AllocsPerRun(100, func() { c.fp2mMul(&zm, &xm, &ym) }); a != 0 {
		t.Fatalf("fp2mMul allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.fp2mSquare(&zm, &xm) }); a != 0 {
		t.Fatalf("fp2mSquare allocates %v/op", a)
	}

	g := p.Generator()
	ga, gb := g.Exp(big.NewInt(31337)), g.Exp(big.NewInt(271828))
	// The only allocations in a full pairing are the boundary conversions:
	// two coordinates out of Montgomery form plus the fp2/GT wrappers.
	const pairAllocBudget = 8
	if a := testing.AllocsPerRun(5, func() { p.MustPair(ga, gb) }); a > pairAllocBudget {
		t.Fatalf("Pair allocates %v/op, budget %d", a, pairAllocBudget)
	}
	pre := p.Prepare(ga)
	if a := testing.AllocsPerRun(5, func() {
		if _, err := pre.Pair(gb); err != nil {
			t.Fatal(err)
		}
	}); a > pairAllocBudget {
		t.Fatalf("PreparedG.Pair allocates %v/op, budget %d", a, pairAllocBudget)
	}
}
