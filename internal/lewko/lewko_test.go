package lewko

import (
	"crypto/rand"
	"errors"
	"testing"

	"maacs/internal/pairing"
)

type fixture struct {
	t    *testing.T
	sys  *System
	auth map[string]*Authority
	pks  map[string]*AttrPublicKey
}

func newFixture(t *testing.T, authorities map[string][]string) *fixture {
	t.Helper()
	f := &fixture{
		t:    t,
		sys:  NewSystem(pairing.Test()),
		auth: make(map[string]*Authority),
		pks:  make(map[string]*AttrPublicKey),
	}
	for aid, names := range authorities {
		a, err := NewAuthority(f.sys, aid, names, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		f.auth[aid] = a
		for q, pk := range a.PublicKeys() {
			f.pks[q] = pk
		}
	}
	return f
}

func (f *fixture) keysFor(gid string, attrs map[string][]string) *SecretKey {
	f.t.Helper()
	var parts []*SecretKey
	for aid, names := range attrs {
		sk, err := f.auth[aid].KeyGen(gid, names)
		if err != nil {
			f.t.Fatal(err)
		}
		parts = append(parts, sk)
	}
	merged, err := Merge(parts...)
	if err != nil {
		f.t.Fatal(err)
	}
	return merged
}

func (f *fixture) roundTrip(policy string, sk *SecretKey) (want, got *pairing.GT, err error) {
	f.t.Helper()
	m, _, err2 := f.sys.Params.RandomGT(rand.Reader)
	if err2 != nil {
		f.t.Fatal(err2)
	}
	ct, err2 := Encrypt(f.sys, m, policy, f.pks, rand.Reader)
	if err2 != nil {
		f.t.Fatalf("Encrypt(%q): %v", policy, err2)
	}
	got, err = Decrypt(f.sys, ct, sk)
	return m, got, err
}

func TestEncryptDecryptSingleAuthority(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor", "nurse"}})
	sk := f.keysFor("alice", map[string][]string{"med": {"doctor"}})
	want, got, err := f.roundTrip("med:doctor", sk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("decryption mismatch")
	}
}

func TestEncryptDecryptMultiAuthority(t *testing.T) {
	f := newFixture(t, map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher", "student"},
	})
	sk := f.keysFor("alice", map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher"},
	})
	want, got, err := f.roundTrip("med:doctor AND (uni:researcher OR uni:student)", sk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("decryption mismatch")
	}
}

func TestDecryptFailsWithoutAttributes(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor", "nurse"}})
	sk := f.keysFor("bob", map[string][]string{"med": {"nurse"}})
	_, _, err := f.roundTrip("med:doctor", sk)
	if !errors.Is(err, ErrPolicyNotSatisfied) {
		t.Fatalf("got %v, want ErrPolicyNotSatisfied", err)
	}
}

func TestCollusionResistance(t *testing.T) {
	f := newFixture(t, map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher"},
	})
	daveMed := f.keysFor("dave", map[string][]string{"med": {"doctor"}})
	erinUni := f.keysFor("erin", map[string][]string{"uni": {"researcher"}})

	// Merge must refuse mixed GIDs…
	if _, err := Merge(daveMed, erinUni); err == nil {
		t.Fatal("Merge accepted keys of different users")
	}
	// …and a hand-built pooled key must fail to decrypt (H(GID) mismatch).
	pooled := &SecretKey{GID: "dave", KAttr: map[string]*pairing.G{}}
	for q, v := range daveMed.KAttr {
		pooled.KAttr[q] = v
	}
	for q, v := range erinUni.KAttr {
		pooled.KAttr[q] = v
	}
	m, _, err := f.sys.Params.RandomGT(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(f.sys, m, "med:doctor AND uni:researcher", f.pks, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decrypt(f.sys, ct, pooled); err == nil && got.Equal(m) {
		t.Fatal("collusion succeeded in Lewko baseline")
	}
}

// TestDecryptRehashesRenamedKey pins the H(GID) kept on a key: it serves
// only the GID it was computed for, so a key relabelled to another GID is
// decrypted with the new H(GID) and fails.
func TestDecryptRehashesRenamedKey(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor"}})
	sk := f.keysFor("alice", map[string][]string{"med": {"doctor"}})
	want, got, err := f.roundTrip("med:doctor", sk)
	if err != nil || !got.Equal(want) {
		t.Fatalf("decryption with the kept H(GID) failed: %v", err)
	}
	sk.GID = "mallory"
	if want, got, err := f.roundTrip("med:doctor", sk); err == nil && got.Equal(want) {
		t.Fatal("relabelled key decrypted with the stale H(GID)")
	}
}

func TestThresholdPolicy(t *testing.T) {
	f := newFixture(t, map[string][]string{
		"a": {"x"}, "b": {"y"}, "c": {"z"},
	})
	sk := f.keysFor("u", map[string][]string{"a": {"x"}, "c": {"z"}})
	want, got, err := f.roundTrip("2 of (a:x, b:y, c:z)", sk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("threshold decryption mismatch")
	}
}

func TestEncryptMissingPublicKey(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor"}})
	m, _, err := f.sys.Params.RandomGT(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Encrypt(f.sys, m, "uni:researcher", f.pks, rand.Reader); !errors.Is(err, ErrMissingPublicKey) {
		t.Fatalf("got %v, want ErrMissingPublicKey", err)
	}
}

func TestKeyGenUnknownAttribute(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor"}})
	if _, err := f.auth["med"].KeyGen("alice", []string{"pilot"}); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
}

func TestCiphertextSizeFormula(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor", "nurse", "surgeon"}})
	m, _, err := f.sys.Params.RandomGT(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(f.sys, m, "med:doctor AND (med:nurse OR med:surgeon)", f.pks, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := f.sys.Params
	want := (3+1)*p.GTByteLen() + 2*3*p.GByteLen() // (l+1)|GT| + 2l|G|, l = 3
	if got := ct.Size(p); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestNoCentralSecret(t *testing.T) {
	// Structural check of the paper's Table I row: creating two authorities
	// requires no shared state — keys issued independently still combine.
	f := newFixture(t, map[string][]string{"a": {"x"}, "b": {"y"}})
	sk := f.keysFor("u", map[string][]string{"a": {"x"}, "b": {"y"}})
	want, got, err := f.roundTrip("a:x AND b:y", sk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("independent authorities failed to interoperate")
	}
}
