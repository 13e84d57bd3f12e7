package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func orgs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Org%d", i)
	}
	return out
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestP0RequiresAll(t *testing.T) {
	p := Build(P0, orgs(4))
	if !p.Satisfied(set("Org0", "Org1", "Org2", "Org3")) {
		t.Error("P0 unsatisfied with all orgs")
	}
	if p.Satisfied(set("Org0", "Org1", "Org2")) {
		t.Error("P0 satisfied with a missing org")
	}
	if p.SubPolicies() != 0 {
		t.Errorf("P0 sub-policies = %d, want 0", p.SubPolicies())
	}
}

func TestP1RequiresOrg0PlusOne(t *testing.T) {
	p := Build(P1, orgs(4))
	if !p.Satisfied(set("Org0", "Org3")) {
		t.Error("P1 unsatisfied with Org0+Org3")
	}
	if p.Satisfied(set("Org1", "Org2")) {
		t.Error("P1 satisfied without Org0")
	}
	if p.Satisfied(set("Org0")) {
		t.Error("P1 satisfied with Org0 alone")
	}
	if p.SubPolicies() != 1 {
		t.Errorf("P1 sub-policies = %d, want 1", p.SubPolicies())
	}
}

func TestP2RequiresBothHalves(t *testing.T) {
	p := Build(P2, orgs(8))
	if !p.Satisfied(set("Org1", "Org6")) {
		t.Error("P2 unsatisfied with one org per half")
	}
	if p.Satisfied(set("Org0", "Org3")) {
		t.Error("P2 satisfied with two first-half orgs")
	}
	if p.Satisfied(set("Org5", "Org7")) {
		t.Error("P2 satisfied with two second-half orgs")
	}
	if p.SubPolicies() != 2 {
		t.Errorf("P2 sub-policies = %d, want 2", p.SubPolicies())
	}
}

func TestP2TwoOrgs(t *testing.T) {
	p := Build(P2, orgs(2))
	if !p.Satisfied(set("Org0", "Org1")) {
		t.Error("P2 with 2 orgs unsatisfied by both")
	}
	if p.Satisfied(set("Org0")) || p.Satisfied(set("Org1")) {
		t.Error("P2 with 2 orgs satisfied by one org")
	}
}

func TestP3Quorum(t *testing.T) {
	p := Build(P3, orgs(8)) // needs 5 of 8
	if !p.Satisfied(set("Org0", "Org1", "Org2", "Org3", "Org4")) {
		t.Error("P3 unsatisfied with quorum")
	}
	if p.Satisfied(set("Org0", "Org1", "Org2", "Org3")) {
		t.Error("P3 satisfied below quorum")
	}
	if p.SubPolicies() != 0 {
		t.Errorf("P3 sub-policies = %d, want 0", p.SubPolicies())
	}
}

func TestBuildPanicsOnTooFewOrgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1 org")
		}
	}()
	Build(P0, orgs(1))
}

func TestRequiredEndorsersSatisfy(t *testing.T) {
	for _, name := range AllNames() {
		for _, n := range []int{2, 4, 6, 8, 10} {
			p := Build(name, orgs(n))
			for rot := 0; rot < n; rot++ {
				req := p.RequiredEndorsers(rot)
				if !p.Satisfied(set(req...)) {
					t.Errorf("%v n=%d rot=%d: endorser set %v does not satisfy %v",
						name, n, rot, req, p)
				}
			}
		}
	}
}

func TestRequiredEndorsersSizes(t *testing.T) {
	n := 8
	if got := len(Build(P0, orgs(n)).RequiredEndorsers(0)); got != n {
		t.Errorf("P0 endorsers = %d, want %d", got, n)
	}
	if got := len(Build(P1, orgs(n)).RequiredEndorsers(0)); got != 2 {
		t.Errorf("P1 endorsers = %d, want 2", got)
	}
	if got := len(Build(P2, orgs(n)).RequiredEndorsers(0)); got != 2 {
		t.Errorf("P2 endorsers = %d, want 2", got)
	}
	if got := len(Build(P3, orgs(n)).RequiredEndorsers(0)); got != n/2+1 {
		t.Errorf("P3 endorsers = %d, want %d", got, n/2+1)
	}
}

func TestRotationSpreadsChoice(t *testing.T) {
	p := Build(P1, orgs(4))
	seen := map[string]bool{}
	for rot := 0; rot < 8; rot++ {
		for _, o := range p.RequiredEndorsers(rot) {
			seen[o] = true
		}
	}
	if len(seen) < 3 {
		t.Errorf("rotation only ever picked %v", seen)
	}
}

func TestStringRendering(t *testing.T) {
	p := Build(P1, orgs(3))
	want := "2-of[signed-by:Org0, 1-of[signed-by:Org1, signed-by:Org2]]"
	if p.String() != want {
		t.Errorf("String = %q, want %q", p.String(), want)
	}
	for i, n := range AllNames() {
		if n.String() != fmt.Sprintf("P%d", i) {
			t.Errorf("Name %d String = %q", i, n.String())
		}
	}
}

func TestMaxEndorsements(t *testing.T) {
	if got := Build(P0, orgs(5)).MaxEndorsements(); got != 5 {
		t.Errorf("P0 MaxEndorsements = %d", got)
	}
	if got := Build(P2, orgs(8)).MaxEndorsements(); got != 8 {
		t.Errorf("P2 MaxEndorsements = %d", got)
	}
}

// Property: a superset of a satisfying set still satisfies
// (monotonicity), and the empty set never satisfies.
func TestSatisfactionMonotone(t *testing.T) {
	f := func(nOrgs uint8, which uint8, extra uint8) bool {
		n := int(nOrgs%9) + 2 // 2..10
		os := orgs(n)
		p := Build(AllNames()[which%4], os)
		if p.Satisfied(map[string]bool{}) {
			return false
		}
		base := p.RequiredEndorsers(int(which))
		s := set(base...)
		if !p.Satisfied(s) {
			return false
		}
		s[os[int(extra)%n]] = true // add one more org
		return p.Satisfied(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

// The per-residue table must answer exactly what the uncached
// computation answers, beyond one full period of rotations.
func TestRequiredEndorsersTableMatchesUncached(t *testing.T) {
	for _, name := range AllNames() {
		for n := 2; n <= 10; n++ {
			p := Build(name, orgs(n))
			period := p.rotationPeriod()
			for rot := 0; rot <= 2*period; rot++ {
				got, want := p.RequiredEndorsers(rot), p.requiredEndorsers(rot)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v n=%d rot=%d (period %d): table %v, uncached %v", name, n, rot, period, got, want)
				}
			}
		}
	}
}

// Networks run on parallel goroutines (core.RunAll); a policy they
// share must fill its table race-free. Run with -race.
func TestRequiredEndorsersConcurrentFirstUse(t *testing.T) {
	p := Build(P1, orgs(6))
	period := p.rotationPeriod()
	want := p.requiredEndorsers(3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rot := 0; rot < 100; rot++ {
				if got := p.RequiredEndorsers(rot*period + 3); !reflect.DeepEqual(got, want) {
					t.Errorf("rot %d: %v, want %v", rot*period+3, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRequiredEndorsers(b *testing.B) {
	p := Build(P0, orgs(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RequiredEndorsers(i)
	}
}
