package engine

import (
	"math/big"

	"maacs/internal/pairing"
)

// DualExp computes a^x · b^y. Exponents are reduced mod R and may be
// negative; the result is the exact group element (canonical affine form)
// of the naive computation. It panics on mixed parameter sets, which
// indicates a programming error (matching pairing.MustPair).
//
// Each factor runs through precomputed-table exponentiation: the shared
// generator comb when the base is the group generator, and the bounded LRU
// ExpTable cache otherwise. The schemes' per-attribute loops call this with
// a handful of hot bases (attribute public keys, hashed attributes, the
// generator), so after the first touch every factor costs one table walk —
// on the Montgomery kernel a limb-native comb evaluation instead of a
// per-bit affine Mul chain that paid a field inversion per step. Even a
// cache miss costs about the same as the old shared Shamir ladder, since
// building a table is roughly one plain exponentiation.
func DualExp(a *pairing.G, x *big.Int, b *pairing.G, y *big.Int) *pairing.G {
	p := a.Params()
	if b.Params() != p {
		panic(pairing.ErrMixedParams)
	}
	return tableExp(p, a, x).Mul(tableExp(p, b, y))
}

// tableExp routes one factor to the cheapest precomputed path.
func tableExp(p *pairing.Params, g *pairing.G, k *big.Int) *pairing.G {
	if g.Equal(p.Generator()) {
		return p.FixedBaseExp(k)
	}
	return PreparedExp(g).Exp(k)
}

// FixedBaseExpAll computes g^ks[i] for the group generator across the pool,
// using the precomputed generator window table.
func (p *Pool) FixedBaseExpAll(params *pairing.Params, ks []*big.Int) []*pairing.G {
	out := make([]*pairing.G, len(ks))
	_ = p.Run(len(ks), func(i int) error {
		out[i] = params.FixedBaseExp(ks[i])
		return nil
	})
	return out
}
