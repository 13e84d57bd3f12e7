package fabcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignVerify(t *testing.T) {
	msp := NewMSP("secret")
	id := msp.Register("Org0", "peer0")
	digest := []byte("payload-digest")
	sig := id.Sign(digest)
	if !msp.Verify("Org0", "peer0", digest, sig) {
		t.Fatal("valid signature rejected")
	}
	if msp.Verify("Org0", "peer0", []byte("other"), sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	if msp.Verify("Org1", "peer0", digest, sig) {
		t.Fatal("signature accepted for unregistered identity")
	}
}

func TestDistinctIdentitiesDistinctSignatures(t *testing.T) {
	msp := NewMSP("secret")
	a := msp.Register("Org0", "peer0")
	b := msp.Register("Org0", "peer1")
	d := []byte("digest")
	if string(a.Sign(d)) == string(b.Sign(d)) {
		t.Fatal("two identities produced identical signatures")
	}
	if msp.Verify("Org0", "peer1", d, a.Sign(d)) {
		t.Fatal("peer1 verified peer0's signature")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	msp := NewMSP("s")
	a := msp.Register("Org0", "peer0")
	b := msp.Register("Org0", "peer0")
	if a != b {
		t.Fatal("re-registering returned a different identity")
	}
	if got := msp.Members("Org0"); len(got) != 1 {
		t.Fatalf("Members = %v", got)
	}
}

func TestOrgsAndMembersSorted(t *testing.T) {
	msp := NewMSP("s")
	msp.Register("Org2", "b")
	msp.Register("Org0", "z")
	msp.Register("Org0", "a")
	msp.Register("Org1", "m")
	os := msp.Orgs()
	if len(os) != 3 || os[0] != "Org0" || os[2] != "Org2" {
		t.Errorf("Orgs = %v", os)
	}
	ms := msp.Members("Org0")
	if len(ms) != 2 || ms[0] != "a" || ms[1] != "z" {
		t.Errorf("Members = %v", ms)
	}
}

func TestLookupMissing(t *testing.T) {
	msp := NewMSP("s")
	if msp.Lookup("nope", "nobody") != nil {
		t.Fatal("Lookup returned identity for unregistered name")
	}
}

func TestNames(t *testing.T) {
	if OrgName(3) != "Org3" {
		t.Errorf("OrgName = %q", OrgName(3))
	}
	if PeerName("Org3", 1) != "Org3-peer1" {
		t.Errorf("PeerName = %q", PeerName("Org3", 1))
	}
}

func TestDeterministicAcrossMSPInstances(t *testing.T) {
	a := NewMSP("same-secret").Register("Org0", "peer0")
	b := NewMSP("same-secret").Register("Org0", "peer0")
	d := []byte("digest")
	if string(a.Sign(d)) != string(b.Sign(d)) {
		t.Fatal("same secret+identity gave different signatures")
	}
	c := NewMSP("other-secret").Register("Org0", "peer0")
	if string(a.Sign(d)) == string(c.Sign(d)) {
		t.Fatal("different secrets gave identical signatures")
	}
}

// Property: round-trip verification holds for arbitrary org/id/digest.
func TestSignVerifyProperty(t *testing.T) {
	msp := NewMSP("prop")
	f := func(org, id string, digest []byte) bool {
		if org == "" || id == "" {
			return true
		}
		ident := msp.Register(org, id)
		return msp.Verify(org, id, digest, ident.Sign(digest))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// An identity reuses one keyed hasher; its signatures must be the bytes
// a fresh HMAC over the identity's derived key produces, whatever was
// signed before and by whom.
func TestSignMatchesFreshHMAC(t *testing.T) {
	const secret = "fresh"
	msp := NewMSP(secret)
	fresh := func(org, id string, digest []byte) []byte {
		k := hmac.New(sha256.New, []byte(secret))
		k.Write([]byte(qualify(org, id)))
		m := hmac.New(sha256.New, k.Sum(nil))
		m.Write(digest)
		return m.Sum(nil)
	}
	var ids []*Identity
	for o := 0; o < 3; o++ {
		for p := 0; p < 2; p++ {
			ids = append(ids, msp.Register(OrgName(o), PeerName(OrgName(o), p)))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		id := ids[rng.Intn(len(ids))]
		digest := make([]byte, rng.Intn(100)) // empty, sub-block and multi-block inputs
		rng.Read(digest)
		want := fresh(id.Org, id.ID, digest)
		if got := id.Sign(digest); !bytes.Equal(got, want) {
			t.Fatalf("signature %d by %s/%s over %d bytes differs from a fresh HMAC", i, id.Org, id.ID, len(digest))
		}
		if !msp.Verify(id.Org, id.ID, digest, want) {
			t.Fatalf("signature %d: Verify rejected the fresh HMAC", i)
		}
		other := ids[rng.Intn(len(ids))]
		if other != id && msp.Verify(other.Org, other.ID, digest, want) {
			t.Fatalf("signature %d by %s verified as %s", i, id.ID, other.ID)
		}
	}
}

// AppendSign extends dst with exactly Sign's bytes and leaves what dst
// held in front of them alone.
func TestAppendSignAppendsSign(t *testing.T) {
	id := NewMSP("append").Register("Org0", "peer0")
	digest := sha256.Sum256([]byte("payload"))
	want := id.Sign(digest[:])
	buf := make([]byte, 3, 3+sha256.Size)
	copy(buf, "abc")
	got := id.AppendSign(buf, digest[:])
	if string(got[:3]) != "abc" || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendSign gave %x, want abc followed by %x", got, want)
	}
	if &got[0] != &buf[0] {
		t.Fatal("AppendSign reallocated a destination with room for the signature")
	}
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// Verify computes the expected signature in the identity's scratch: a
// check allocates nothing whether it passes or fails.
func TestVerifyAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	msp := NewMSP("allocs")
	id := msp.Register("Org0", "peer0")
	digest := sha256.Sum256([]byte("payload"))
	good := id.Sign(digest[:])
	bad := append([]byte(nil), good...)
	bad[0] ^= 1
	for _, c := range []struct {
		name string
		sig  []byte
		want bool
	}{{"good", good, true}, {"bad", bad, false}} {
		var ok bool
		if n := testing.AllocsPerRun(100, func() { ok = msp.Verify("Org0", "peer0", digest[:], c.sig) }); n != 0 {
			t.Errorf("Verify of a %s signature: %v allocations, want 0", c.name, n)
		}
		if ok != c.want {
			t.Errorf("Verify of a %s signature = %v", c.name, ok)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	id := NewMSP("bench").Register("Org0", "peer0")
	digest := sha256.Sum256([]byte("payload"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Sign(digest[:])
	}
}
