package pairing

import (
	"fmt"
	"math/big"
	"sync"
)

// NewParams reconstructs a Params value from its defining integers (all in
// decimal): base field prime q, group order r, cofactor h, and the affine
// coordinates of the generator. It validates everything, including that q
// is at most 576 bits wide, so it is safe to feed untrusted parameter
// strings to it.
func NewParams(qStr, rStr, hStr, gxStr, gyStr string) (*Params, error) {
	q, ok1 := new(big.Int).SetString(qStr, 10)
	r, ok2 := new(big.Int).SetString(rStr, 10)
	h, ok3 := new(big.Int).SetString(hStr, 10)
	gx, ok4 := new(big.Int).SetString(gxStr, 10)
	gy, ok5 := new(big.Int).SetString(gyStr, 10)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, fmt.Errorf("%w: unparseable integer", ErrInvalidParams)
	}
	p, err := newParams(q, r, h)
	if err != nil {
		return nil, err
	}
	p.gen = point{x: gx, y: gy}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Decimal constants for the default (paper-scale) parameters: a 160-bit
// group order and 512-bit base field, the same sizes as the PBC α-curve used
// in the paper's evaluation. Generated once with cmd/maacs-paramgen.
const (
	defaultQ  = "20301860231833114598641005763142720493888738528957608109043358401580478807106066893483095486137055720228780930537780026463377271001020864698048346658282731"
	defaultR  = "1240700080266801019348078620562842876609138719753"
	defaultH  = "16363229562673509516895572929760960456108751190710230266611947953828970101189563609243593826868276519471244"
	defaultGX = "11448672117395126746089558245729596125671060559782178736541505145695671660825454556816607192145409790574106844214289948824979288474383163796540699508405928"
	defaultGY = "2202765372023036855548900473460563006470260220740215046094422696072435520469541675799754649807173412330533486582799614038913565173530256128429376083570941"
)

// Decimal constants for small test parameters (48-bit order, 96-bit field):
// cryptographically worthless but two orders of magnitude faster, used by
// unit and property tests that need many iterations. Generated with
// cmd/maacs-paramgen -test.
const (
	testQ  = "55408601198092020700205721511"
	testR  = "214482268068571"
	testH  = "258336512836472"
	testGX = "50932307366807450567244062659"
	testGY = "23977693753224805952382436830"
)

var (
	defaultOnce   sync.Once
	defaultParams *Params
	testOnce      sync.Once
	testParams    *Params
)

// Default returns the shared paper-scale parameters (160-bit order, 512-bit
// base field). The first call validates them; subsequent calls are cheap.
func Default() *Params {
	defaultOnce.Do(func() {
		p, err := NewParams(defaultQ, defaultR, defaultH, defaultGX, defaultGY)
		if err != nil {
			panic(fmt.Sprintf("pairing: built-in default parameters invalid: %v", err))
		}
		defaultParams = p
	})
	return defaultParams
}

// Test returns the shared small parameters for fast tests. Never use these
// outside tests.
func Test() *Params {
	testOnce.Do(func() {
		p, err := NewParams(testQ, testR, testH, testGX, testGY)
		if err != nil {
			panic(fmt.Sprintf("pairing: built-in test parameters invalid: %v", err))
		}
		testParams = p
	})
	return testParams
}
