package fabric

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/sim"
)

// The chain keeps the block the ordering service cut: the metrics peer
// sets its validation codes and commit time when it commits it, and
// appends it. cutRecorder and TestOnlyTheChainReadsCommitFields hold
// that up: every corpus run and every chain of TestDigestBinding checks
// that its chains are the cut blocks, with nothing set before the
// metrics peer's commit, and no code outside the chain's own readers
// reads the two fields.

// cutRecorder wraps a run's variant and records each block as the
// validator hands it over, in cut order per channel, with the codes it
// computed for it.
type cutRecorder struct {
	Variant
	cut   map[int][]*ledger.Block
	codes map[int][][]ledger.ValidationCode
	// early is the first block that reached validation with codes or a
	// commit time already set.
	early error
}

func recordCuts(v Variant) *cutRecorder {
	if v == nil {
		v = Vanilla{}
	}
	return &cutRecorder{Variant: v, cut: map[int][]*ledger.Block{}, codes: map[int][][]ledger.ValidationCode{}}
}

// OnBlockValidated implements Variant.
func (r *cutRecorder) OnBlockValidated(b *ledger.Block, codes []ledger.ValidationCode) {
	if r.early == nil && (b.ValidationCodes != nil || b.CommitTime != 0) {
		r.early = fmt.Errorf("channel %d, block %d reached validation with codes %v and commit time %v",
			b.Channel, b.Number, b.ValidationCodes, b.CommitTime)
	}
	r.cut[b.Channel] = append(r.cut[b.Channel], b)
	r.codes[b.Channel] = append(r.codes[b.Channel], slices.Clone(codes))
	r.Variant.OnBlockValidated(b, codes)
}

// check holds nw's chains to the recorded blocks: past genesis, each
// channel's chain is a prefix of what its orderer cut, block by block
// the same pointer, carrying the codes validation computed and a commit
// time at or after its cut and its predecessor's commit.
func (r *cutRecorder) check(nw *Network) error {
	if r.early != nil {
		return r.early
	}
	for ch, chain := range nw.chains {
		blocks, cut := chain.Blocks()[1:], r.cut[ch]
		if len(blocks) > len(cut) {
			return fmt.Errorf("channel %d: %d blocks on the chain, %d cut", ch, len(blocks), len(cut))
		}
		var last sim.Time
		for i, b := range blocks {
			switch {
			case b != cut[i]:
				return fmt.Errorf("channel %d: chain block %d is not the block the orderer cut", ch, b.Number)
			case !slices.Equal(b.ValidationCodes, r.codes[ch][i]):
				return fmt.Errorf("channel %d, block %d: codes %v on the chain, %v validated", ch, b.Number, b.ValidationCodes, r.codes[ch][i])
			case b.CommitTime < b.CutTime || b.CommitTime < last || b.CommitTime > nw.eng.Now():
				return fmt.Errorf("channel %d, block %d: committed at %v, cut at %v, the block before committed at %v",
					ch, b.Number, b.CommitTime, b.CutTime, last)
			}
			last = b.CommitTime
		}
	}
	return nil
}

// TestOnlyTheChainReadsCommitFields: a block's validation codes and
// commit time are set on the block the orderer cut, which every peer
// also holds, so nothing but the chain's own readers may use them. In
// the module's non-test code only the metrics peer's commit (which sets
// them), ledger (the chain) and Collector.RecordChain (which walks it)
// name either field.
func TestOnlyTheChainReadsCommitFields(t *testing.T) {
	allowed := map[string]bool{
		"internal/fabric/peer.go:commit":          true,
		"internal/metrics/metrics.go:RecordChain": true,
	}
	root := filepath.Join("..", "..")
	var found []string
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch name := d.Name(); {
			case rel == "internal/ledger", rel == "bench", name == "testdata", rel != "." && strings.HasPrefix(name, "."):
				return filepath.SkipDir // the chain itself; the benchmark module, which reads finished chains
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "ValidationCodes" || sel.Sel.Name == "CommitTime") {
					if at := filepath.ToSlash(rel) + ":" + fn.Name.Name; !allowed[at] {
						found = append(found, at+" ("+sel.Sel.Name+")")
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go file found under %s", root)
	}
	sort.Strings(found)
	if len(found) > 0 {
		t.Errorf("a block's codes or commit time are read outside the chain: %s", strings.Join(found, ", "))
	}
}
