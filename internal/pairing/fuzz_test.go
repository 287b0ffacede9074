package pairing

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzUnmarshalG asserts the point decoder never panics, never accepts an
// element outside the order-r subgroup, and round-trips what it accepts.
func FuzzUnmarshalG(f *testing.F) {
	p := Test()
	f.Add(p.Generator().Marshal())
	f.Add(p.OneG().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x02})
	f.Add(bytes.Repeat([]byte{0xFF}, p.GByteLen()))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := p.UnmarshalG(data)
		if err != nil {
			return
		}
		if !p.hasOrderDividingR(g.pt) {
			t.Fatal("accepted point outside the subgroup")
		}
		back, err := p.UnmarshalG(g.Marshal())
		if err != nil || !back.Equal(g) {
			t.Fatal("accepted point does not round-trip")
		}
	})
}

// FuzzPairOracle pins every public pairing entry point (checkOracle: Pair,
// Prepare(a).Pair(b), PairProd, G.Exp, FixedBaseExp, PrepareExp(a).Exp,
// GT.Exp and UnmarshalG(Marshal)) byte for byte against the reference
// oracle on random subgroup points g^a, g^b and a third scalar k. The
// scalars are arbitrary uint64s — including 0 and values ≥ R — so
// normalization is fuzzed along with the kernel. Chain independence of the
// reduced Tate pairing makes bit-identical output the correct expectation,
// not just equality up to subgroup structure.
func FuzzPairOracle(f *testing.F) {
	p := Test()
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(1), uint64(1))
	f.Add(uint64(2), uint64(3), uint64(5))
	f.Add(^uint64(0), ^uint64(0)>>1, uint64(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, a64, b64, k64 uint64) {
		a := new(big.Int).SetUint64(a64)
		b := new(big.Int).SetUint64(b64)
		k := new(big.Int).SetUint64(k64)
		checkOracle(t, p, a, b, k)
	})
}

// FuzzUnmarshalGT mirrors FuzzUnmarshalG for the target group.
func FuzzUnmarshalGT(f *testing.F) {
	p := Test()
	f.Add(p.GTGenerator().Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, p.GTByteLen()))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := p.UnmarshalGT(data)
		if err != nil {
			return
		}
		if !p.fp2Exp(v.v, p.R).isOne() {
			t.Fatal("accepted GT element outside the subgroup")
		}
		back, err := p.UnmarshalGT(v.Marshal())
		if err != nil || !back.Equal(v) {
			t.Fatal("accepted GT element does not round-trip")
		}
	})
}
