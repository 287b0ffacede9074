package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"maacs/internal/engine"
	"maacs/internal/pairing"
	"maacs/internal/waters"
)

// PairingPoint is one measured operation of the pairing report: the work
// run on the Montgomery kernel and, where the pairing package has a named
// oracle entry point for it (PairReference, G.ExpReference,
// GT.ExpReference), on that affine/naive reference.
type PairingPoint struct {
	// Op names the operation: "pair", "prepared-pair", "prepare", "g-exp",
	// "gt-exp", a per-scheme "encrypt"/"encrypt-lewko"/"encrypt-waters",
	// or "decrypt".
	Op string `json:"op"`
	// Reps is the number of back-to-back executions inside one timed trial;
	// the recorded times are already divided down to per-operation cost.
	Reps int `json:"reps"`
	// MontgomeryNs is the best-of-trials per-op wall time on the kernel.
	MontgomeryNs int64 `json:"montgomery_ns"`
	// ReferenceNs is the same for the oracle entry point, and Speedup is
	// ReferenceNs / MontgomeryNs. Both are zero (and omitted) on rows with
	// no oracle: prepare, prepared-pair and the whole-scheme rows.
	ReferenceNs int64   `json:"reference_ns,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

// FieldPoint is one field-primitive row: the innermost arithmetic the
// Miller loop is built from, timed on the fixed-width Montgomery limbs and
// on math/big, with heap allocations per operation for each.
type FieldPoint struct {
	// Op names the primitive: "fp-mul", "fp-square", "fp-inv", "fp2-mul".
	Op string `json:"op"`
	// Reps is the number of executions inside one timed trial.
	Reps         int   `json:"reps"`
	MontgomeryNs int64 `json:"montgomery_ns"`
	BigIntNs     int64 `json:"bigint_ns"`
	// Speedup is BigIntNs / MontgomeryNs.
	Speedup float64 `json:"speedup"`
	// MontgomeryAllocs and BigIntAllocs are heap allocations per operation
	// (testing.AllocsPerRun). The Montgomery column must be zero.
	MontgomeryAllocs float64 `json:"montgomery_allocs"`
	BigIntAllocs     float64 `json:"bigint_allocs"`
}

// PairingReport is the machine-readable result of MeasurePairing, written
// to BENCH_pairing.json. Everything runs single-threaded (the engine pool
// is pinned to one worker for the scheme-level rows), so the speedups are
// pure kernel arithmetic, not parallelism.
type PairingReport struct {
	RBits  int `json:"r_bits"`
	QBits  int `json:"q_bits"`
	Trials int `json:"trials"`
	Attrs  int `json:"attrs"`
	// Fields are the base/extension-field primitive rows; Points are the
	// group-operation and whole-scheme rows.
	Fields []FieldPoint   `json:"fields"`
	Points []PairingPoint `json:"points"`
}

// timeBestPerOp runs f (which performs reps operations) trials times and
// returns the fastest per-operation wall time.
func timeBestPerOp(trials, reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best / time.Duration(reps), nil
}

// measure times the op on the kernel and, when ref is non-nil, on its
// oracle entry point, and appends the point.
func (r *PairingReport) measure(op string, reps int, mont, ref func() error) error {
	m, err := timeBestPerOp(r.Trials, reps, mont)
	if err != nil {
		return fmt.Errorf("%s montgomery: %w", op, err)
	}
	pt := PairingPoint{Op: op, Reps: reps, MontgomeryNs: m.Nanoseconds()}
	if ref != nil {
		rf, err := timeBestPerOp(r.Trials, reps, ref)
		if err != nil {
			return fmt.Errorf("%s reference: %w", op, err)
		}
		pt.ReferenceNs = rf.Nanoseconds()
		pt.Speedup = float64(rf.Nanoseconds()) / float64(m.Nanoseconds())
	}
	r.Points = append(r.Points, pt)
	return nil
}

// repeat returns a trial body running f n times, stopping at the first
// error.
func repeat(n int, f func() error) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
}

// minFieldReps floors every field row: fewer iterations than this cannot
// resolve per-op costs above timer noise (the old fixed reps=8 for fp-inv
// could not have detected the 6× EGCD regression it was meant to watch).
const minFieldReps = 200

// calibrateFieldReps sizes a row's per-trial batch from the measured cost
// of one iteration: cheap ops get large batches to amortize timer
// granularity, expensive ops get smaller ones to bound total runtime, and
// no op ever gets fewer than minFieldReps.
func calibrateFieldReps(f func()) int {
	const probe = 8
	start := time.Now()
	for i := 0; i < probe; i++ {
		f()
	}
	per := time.Since(start) / probe
	if per <= 0 {
		per = time.Nanosecond
	}
	reps := int(2 * time.Millisecond / per)
	if reps < minFieldReps {
		reps = minFieldReps
	}
	if reps > 4000 {
		reps = 4000
	}
	return reps
}

// measureFields builds the field-primitive rows from the pairing package's
// exported closures.
func (r *PairingReport) measureFields(p *pairing.Params) error {
	for _, op := range p.FieldBench() {
		// Both columns share one rep count (sized by the slower closure) so
		// the per-op times divide identically.
		reps := calibrateFieldReps(op.Montgomery)
		if bi := calibrateFieldReps(op.BigInt); bi < reps {
			reps = bi
		}
		repeat := func(f func()) func() error {
			return func() error {
				for i := 0; i < reps; i++ {
					f()
				}
				return nil
			}
		}
		m, err := timeBestPerOp(r.Trials, reps, repeat(op.Montgomery))
		if err != nil {
			return err
		}
		bi, err := timeBestPerOp(r.Trials, reps, repeat(op.BigInt))
		if err != nil {
			return err
		}
		r.Fields = append(r.Fields, FieldPoint{
			Op:               op.Name,
			Reps:             reps,
			MontgomeryNs:     m.Nanoseconds(),
			BigIntNs:         bi.Nanoseconds(),
			Speedup:          float64(bi.Nanoseconds()) / float64(m.Nanoseconds()),
			MontgomeryAllocs: testing.AllocsPerRun(100, op.Montgomery),
			BigIntAllocs:     testing.AllocsPerRun(100, op.BigInt),
		})
	}
	return nil
}

// MeasurePairing produces the pairing report behind BENCH_pairing.json:
// the field primitives (Montgomery limbs vs math/big), the pairing
// primitives on the Montgomery kernel against their reference-oracle entry
// points, then whole-scheme encrypt/decrypt rows at the given attribute
// count on the kernel alone. attrs is split as one authority with attrs
// attributes.
func MeasurePairing(params *pairing.Params, rnd io.Reader, attrs, trials int) (*PairingReport, error) {
	report := &PairingReport{
		RBits:  params.R.BitLen(),
		QBits:  params.Q.BitLen(),
		Trials: trials,
		Attrs:  attrs,
	}
	if err := report.measureFields(params); err != nil {
		return nil, err
	}

	// Primitive rows on fresh random elements.
	g := params.Generator()
	ka, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	kb, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	ga, gb := g.Exp(ka), g.Exp(kb)
	e := params.GTGenerator()
	pre := params.Prepare(g)
	rows := []struct {
		op        string
		reps      int
		mont, ref func() error
	}{
		{"pair", 2,
			func() error { _, err := params.Pair(ga, gb); return err },
			func() error { _, err := params.PairReference(ga, gb); return err }},
		{"prepare", 2,
			func() error { params.Prepare(g); return nil }, nil},
		{"prepared-pair", 4,
			func() error { _, err := pre.Pair(gb); return err }, nil},
		{"g-exp", 8,
			func() error { g.Exp(ka); return nil },
			func() error { g.ExpReference(ka); return nil }},
		{"gt-exp", 8,
			func() error { e.Exp(kb); return nil },
			func() error { e.ExpReference(kb); return nil }},
	}
	for _, row := range rows {
		var ref func() error
		if row.ref != nil {
			ref = repeat(row.reps, row.ref)
		}
		if err := report.measure(row.op, row.reps, repeat(row.reps, row.mont), ref); err != nil {
			return nil, err
		}
	}

	// Whole-scheme rows, with the engine pool pinned to one worker so the
	// timings stay single-threaded.
	restore := engine.SetWorkers(1)
	defer restore()
	ours, err := SetupOurs(Config{Params: params, Authorities: 1, AttrsPerAuthority: attrs, Rnd: rnd})
	if err != nil {
		return nil, fmt.Errorf("pairing bench setup: %w", err)
	}
	ct, _, err := ours.Encrypt()
	if err != nil {
		return nil, err
	}
	// The comparison schemes' encrypt loops run the same per-attribute
	// two-base exponentiations through the engine's table caches, so the
	// encrypt rows cover every scheme, not just the paper's. Each runs one
	// untimed encryption first to warm its tables like a live server.
	lewko, err := SetupLewko(Config{Params: params, Authorities: 1, AttrsPerAuthority: attrs, Rnd: rnd})
	if err != nil {
		return nil, fmt.Errorf("pairing bench setup encrypt-lewko: %w", err)
	}
	if _, _, err := lewko.Encrypt(); err != nil {
		return nil, err
	}
	auth, err := waters.Setup(params, rnd)
	if err != nil {
		return nil, fmt.Errorf("pairing bench setup encrypt-waters: %w", err)
	}
	policy := strings.Join(attrNames(attrs), " AND ")
	m, _, err := params.RandomGT(rnd)
	if err != nil {
		return nil, err
	}
	if _, err := waters.Encrypt(auth.PK, m, policy, rnd); err != nil {
		return nil, err
	}
	for _, row := range []struct {
		op string
		f  func() error
	}{
		{"encrypt", func() error { _, _, err := ours.Encrypt(); return err }},
		{"decrypt", func() error { _, err := ours.Decrypt(ct); return err }},
		{"encrypt-lewko", func() error { _, _, err := lewko.Encrypt(); return err }},
		{"encrypt-waters", func() error { _, err := waters.Encrypt(auth.PK, m, policy, rnd); return err }},
	} {
		if err := report.measure(row.op, 1, row.f, nil); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// WriteJSON writes the report as indented JSON.
func (r *PairingReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints a human-readable table of the report.
func (r *PairingReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Pairing kernel montgomery vs reference oracle — |r|=%d, |q|=%d bits, attrs=%d (%d trials, best-of, single-threaded)\n",
		r.RBits, r.QBits, r.Attrs, r.Trials)
	if len(r.Fields) > 0 {
		fmt.Fprintf(w, "%-14s %14s %14s %8s %12s %12s\n",
			"field op", "montgomery", "big.Int", "speedup", "mont allocs", "big allocs")
		for _, f := range r.Fields {
			fmt.Fprintf(w, "%-14s %14s %14s %7.2fx %12.1f %12.1f\n",
				f.Op, time.Duration(f.MontgomeryNs), time.Duration(f.BigIntNs), f.Speedup,
				f.MontgomeryAllocs, f.BigIntAllocs)
		}
	}
	fmt.Fprintf(w, "%-14s %14s %14s %8s\n", "op", "montgomery", "reference", "speedup")
	for _, pt := range r.Points {
		if pt.ReferenceNs == 0 {
			fmt.Fprintf(w, "%-14s %14s %14s %8s\n", pt.Op, time.Duration(pt.MontgomeryNs), "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-14s %14s %14s %7.2fx\n",
			pt.Op, time.Duration(pt.MontgomeryNs), time.Duration(pt.ReferenceNs), pt.Speedup)
	}
}
