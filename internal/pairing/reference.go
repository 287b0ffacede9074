package pairing

import "math/big"

// The reference oracle: textbook implementations of the public operations,
// kept so that tests, fuzz targets and the pairing report can pin the
// Montgomery kernel against them byte for byte. Nothing in the production
// paths calls these.

// PairReference computes e(a, b) with the affine Miller loop (one
// ModInverse per step) and a square-and-multiply final exponentiation. It
// is the "before" timing of BENCH_pairing.json and the oracle the
// differential tests compare Pair, PreparedG.Pair and PairProd against.
func (p *Params) PairReference(a, b *G) (*GT, error) {
	if a.p != p || b.p != p {
		return nil, ErrMixedParams
	}
	return &GT{p: p, v: p.pairReference(a.pt, b.pt)}, nil
}

// ExpReference computes g^k with the textbook affine double-and-add ladder
// (one ModInverse per point operation). k is reduced mod R like Exp.
func (g *G) ExpReference(k *big.Int) *G {
	kk := new(big.Int).Mod(k, g.p.R)
	return &G{p: g.p, pt: g.p.mulScalarAffine(g.pt, kk)}
}

// ExpReference computes t^k with the square-and-multiply unitary ladder.
// k is reduced mod R like Exp.
func (t *GT) ExpReference(k *big.Int) *GT {
	kk := new(big.Int).Mod(k, t.p.R)
	return &GT{p: t.p, v: t.p.fp2ExpUnitary(t.v, kk)}
}
