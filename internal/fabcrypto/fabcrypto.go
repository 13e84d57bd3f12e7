// Package fabcrypto provides the identity and signature substrate of
// the simulated network: organizations, peer identities and an
// MSP-like registry. Signatures are HMAC-SHA256 over the signed
// digest; the study's endorsement-policy logic only needs signatures
// that are verifiable and bound to an identity, not a particular
// cipher, so a keyed MAC stands in for X.509/ECDSA (documented
// substitution in DESIGN.md).
//
// An MSP and its identities are not safe for concurrent use: like a
// state database they belong to one network, and a network runs on the
// one goroutine of its discrete-event engine.
package fabcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
)

// Identity is a signing principal: a peer (or client) belonging to an
// organization. Identities come from MSP.Register.
type Identity struct {
	Org string
	ID  string
	// mac is the identity's keyed hasher, built once and Reset per
	// signature: virtual time is charged by the cost model, so real
	// hashing only buys verifiable chains and need not re-derive the
	// key pads for every signature.
	mac hash.Hash
	// sum is Verify's scratch: the expected signature is computed here,
	// compared and forgotten, so checking one allocates nothing.
	sum [sha256.Size]byte
}

// Sign produces a signature over digest in a fresh slice.
func (id *Identity) Sign(digest []byte) []byte { return id.AppendSign(nil, digest) }

// AppendSign appends the signature over digest to dst and returns the
// extended slice, so a caller can keep a signature in storage it
// already has (an endorsement carries its own).
func (id *Identity) AppendSign(dst, digest []byte) []byte {
	id.mac.Reset()
	id.mac.Write(digest)
	return id.mac.Sum(dst)
}

// MSP is the membership service provider: it registers identities and
// verifies signatures against them.
type MSP struct {
	identities map[member]*Identity
	orgs       map[string][]string // org -> member ids (sorted)
	secret     []byte
}

// member names an identity: a look-up keys by it without building the
// qualified "org/id" string.
type member struct{ org, id string }

// NewMSP creates an empty registry. The secret seeds per-identity
// keys deterministically.
func NewMSP(secret string) *MSP {
	return &MSP{
		identities: map[member]*Identity{},
		orgs:       map[string][]string{},
		secret:     []byte(secret),
	}
}

func qualify(org, id string) string { return org + "/" + id }

// Register creates (or returns) the identity org/id. Its key is derived
// from the secret and the qualified name "org/id".
func (m *MSP) Register(org, id string) *Identity {
	k := member{org, id}
	if existing, ok := m.identities[k]; ok {
		return existing
	}
	mac := hmac.New(sha256.New, m.secret)
	mac.Write([]byte(qualify(org, id)))
	ident := &Identity{Org: org, ID: id, mac: hmac.New(sha256.New, mac.Sum(nil))}
	m.identities[k] = ident
	m.orgs[org] = append(m.orgs[org], id)
	sort.Strings(m.orgs[org])
	return ident
}

// Lookup returns a registered identity or nil.
func (m *MSP) Lookup(org, id string) *Identity {
	return m.identities[member{org, id}]
}

// Verify checks that sig is a valid signature by org/id over digest.
func (m *MSP) Verify(org, id string, digest, sig []byte) bool {
	ident := m.Lookup(org, id)
	if ident == nil {
		return false
	}
	return hmac.Equal(ident.AppendSign(ident.sum[:0], digest), sig)
}

// Orgs lists all registered organizations in sorted order.
func (m *MSP) Orgs() []string {
	out := make([]string, 0, len(m.orgs))
	for o := range m.orgs {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Members lists the identity IDs registered under org.
func (m *MSP) Members(org string) []string {
	return append([]string(nil), m.orgs[org]...)
}

// OrgName formats the canonical organization name used across the
// simulation ("Org0", "Org1", ...).
func OrgName(i int) string { return fmt.Sprintf("Org%d", i) }

// PeerName formats the canonical peer name within an org.
func PeerName(org string, i int) string { return fmt.Sprintf("%s-peer%d", org, i) }
