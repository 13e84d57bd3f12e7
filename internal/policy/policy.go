// Package policy implements Fabric endorsement policies as "n-of"
// trees over organizations (Table 5 of the paper), their evaluation
// during VSCC validation, and the P0–P3 policy builders the study
// sweeps in §5.1.4.
//
// A policy node is either a leaf ("signed-by Org_i") or an "n-of"
// combinator over child nodes. An "n-of" nested inside another "n-of"
// is a sub-policy; the paper shows that the number of sub-policies
// (separate VSCC search spaces) increases validation time and
// endorsement-policy failures.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Policy is an endorsement policy tree node. A tree must not change
// once RequiredEndorsers has been asked of it.
type Policy struct {
	// N is the number of satisfied children required. For a leaf it
	// is 0 and Org is set instead.
	N        int
	Children []*Policy
	Org      string // leaf: the organization whose signature is required

	// endorsers[r] is the endorser set for every rotation congruent to r
	// modulo len(endorsers), filled on first use. The Once makes the
	// fill safe for a policy shared by networks on parallel goroutines.
	once      sync.Once
	endorsers [][]string
}

// SignedBy returns a leaf requiring a signature from org.
func SignedBy(org string) *Policy { return &Policy{Org: org} }

// NOf returns an "n-of" combinator over children.
func NOf(n int, children ...*Policy) *Policy {
	return &Policy{N: n, Children: children}
}

// IsLeaf reports whether the node is a signed-by leaf.
func (p *Policy) IsLeaf() bool { return len(p.Children) == 0 && p.Org != "" }

// Satisfied reports whether the set of endorsing organizations
// satisfies the policy. Duplicate endorsements from one org count
// once, as in Fabric.
func (p *Policy) Satisfied(orgs map[string]bool) bool {
	if p.IsLeaf() {
		return orgs[p.Org]
	}
	have := 0
	for _, c := range p.Children {
		if c.Satisfied(orgs) {
			have++
			if have >= p.N {
				return true
			}
		}
	}
	return have >= p.N
}

// SubPolicies counts the "n-of" clauses nested inside another "n-of"
// (Table 5's definition). A flat policy like P0 has zero.
func (p *Policy) SubPolicies() int {
	n := 0
	var walk func(node *Policy, depth int)
	walk = func(node *Policy, depth int) {
		if node.IsLeaf() {
			return
		}
		if depth > 0 {
			n++
		}
		for _, c := range node.Children {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return n
}

// RequiredEndorsers returns a minimal set of organizations that
// satisfies the policy, preferring the orgs listed earlier (which
// matches how a client SDK picks endorsers). rotation (>= 0) shifts the
// choice among equally valid options so that load spreads across
// orgs, like a round-robin client would.
//
// Every node picks among its children by rotation modulo its child
// count, so the answer depends only on rotation modulo the least common
// multiple of the child counts in the tree; the sets for those residues
// are computed once per policy. The returned slice is shared between
// callers and must not be modified.
func (p *Policy) RequiredEndorsers(rotation int) []string {
	p.once.Do(func() {
		p.endorsers = make([][]string, p.rotationPeriod())
		for r := range p.endorsers {
			p.endorsers[r] = p.requiredEndorsers(r)
		}
	})
	return p.endorsers[rotation%len(p.endorsers)]
}

// rotationPeriod is the least common multiple of the child counts in
// the tree (1 for a leaf).
func (p *Policy) rotationPeriod() int {
	period := max(len(p.Children), 1)
	for _, c := range p.Children {
		cp := c.rotationPeriod()
		gcd, r := period, cp
		for r != 0 {
			gcd, r = r, gcd%r
		}
		period = period / gcd * cp
	}
	return period
}

// requiredEndorsers computes one rotation's endorser set, sorted.
func (p *Policy) requiredEndorsers(rotation int) []string {
	set := p.minimalSet(rotation)
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

func (p *Policy) minimalSet(rotation int) map[string]bool {
	if p.IsLeaf() {
		return map[string]bool{p.Org: true}
	}
	// Gather each child's minimal set, pick the N cheapest starting
	// at the rotation offset.
	type choice struct {
		set  map[string]bool
		size int
	}
	choices := make([]choice, len(p.Children))
	for i, c := range p.Children {
		s := c.minimalSet(rotation)
		choices[i] = choice{set: s, size: len(s)}
	}
	need := p.N
	if need > len(choices) {
		need = len(choices)
	}
	picked := map[string]bool{}
	// Stable selection: iterate children starting at rotation offset,
	// preferring smaller sets among the scanned window.
	order := make([]int, len(choices))
	for i := range order {
		order[i] = (i + rotation) % len(choices)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return choices[order[a]].size < choices[order[b]].size
	})
	for _, idx := range order[:need] {
		for o := range choices[idx].set {
			picked[o] = true
		}
	}
	return picked
}

// MaxEndorsements is the number of leaves, an upper bound on
// signatures a client could collect.
func (p *Policy) MaxEndorsements() int {
	if p.IsLeaf() {
		return 1
	}
	n := 0
	for _, c := range p.Children {
		n += c.MaxEndorsements()
	}
	return n
}

// String renders the policy in the paper's notation.
func (p *Policy) String() string {
	if p.IsLeaf() {
		return fmt.Sprintf("signed-by:%s", p.Org)
	}
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%d-of[%s]", p.N, strings.Join(parts, ", "))
}

// Name identifies one of the paper's four policies.
type Name int

const (
	// P0 requires all N organizations to sign.
	P0 Name = iota
	// P1 requires Org0 plus any one of the others.
	P1
	// P2 requires one org from the first half and one from the
	// second half (two sub-policies).
	P2
	// P3 requires a quorum of N/2+1 organizations.
	P3
)

// String names the policy like the paper.
func (n Name) String() string { return fmt.Sprintf("P%d", int(n)) }

// Build constructs the named policy over orgs (Table 5). It panics if
// fewer than two organizations are supplied, which matches the
// paper's experimental range (2–10 orgs).
func Build(name Name, orgs []string) *Policy {
	if len(orgs) < 2 {
		panic(fmt.Sprintf("policy: need at least 2 orgs, got %d", len(orgs)))
	}
	leaves := func(names []string) []*Policy {
		out := make([]*Policy, len(names))
		for i, o := range names {
			out[i] = SignedBy(o)
		}
		return out
	}
	switch name {
	case P0:
		return NOf(len(orgs), leaves(orgs)...)
	case P1:
		rest := NOf(1, leaves(orgs[1:])...)
		return NOf(2, append([]*Policy{SignedBy(orgs[0])}, rest)...)
	case P2:
		// One signature from the first half of the orgs and one from
		// the second half; splitting at N/2 keeps both halves
		// non-empty for every N >= 2.
		half := len(orgs) / 2
		first := NOf(1, leaves(orgs[:half])...)
		second := NOf(1, leaves(orgs[half:])...)
		return NOf(2, first, second)
	case P3:
		return NOf(len(orgs)/2+1, leaves(orgs)...)
	default:
		panic(fmt.Sprintf("policy: unknown policy name %d", int(name)))
	}
}

// AllNames lists P0..P3 for sweeps.
func AllNames() []Name { return []Name{P0, P1, P2, P3} }
