package ledger

import (
	"errors"
	"fmt"
)

// Chain is the append-only block store ("distributed ledger" in §2).
// Both failed and successful transactions are stored; the paper's
// metrics are produced by parsing this chain after the run (§4.5).
type Chain struct {
	blocks []*Block
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Height returns the number of appended blocks.
func (c *Chain) Height() uint64 { return uint64(len(c.blocks)) }

// Append adds a block, checking number continuity and hash linkage.
func (c *Chain) Append(b *Block) error {
	if b.Number != uint64(len(c.blocks)) {
		return fmt.Errorf("ledger: block number %d, want %d", b.Number, len(c.blocks))
	}
	if len(c.blocks) > 0 && b.PrevHash != c.blocks[len(c.blocks)-1].Hash {
		return errors.New("ledger: previous-hash mismatch")
	}
	if len(b.ValidationCodes) != len(b.Transactions) {
		return fmt.Errorf("ledger: %d validation codes for %d transactions",
			len(b.ValidationCodes), len(b.Transactions))
	}
	c.blocks = append(c.blocks, b)
	return nil
}

// Block returns block n, or nil when out of range.
func (c *Chain) Block(n uint64) *Block {
	if n >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[n]
}

// Blocks returns the underlying slice (not a copy); callers must not
// mutate it.
func (c *Chain) Blocks() []*Block { return c.blocks }

// ErrStripped is what Verify reports for a block whose hash cannot be
// recomputed because range-query observations it covers were freed
// after commit (RWSet.StripRangeReads, fabric's Config.StripAfterCommit
// default). Such a block is unverifiable, not tampered: run with
// StripAfterCommit off to audit the chain.
var ErrStripped = errors.New("range-query observations were stripped after commit (StripAfterCommit), hash not recomputable")

// stripped reports whether any transaction lost hashed observations.
func (b *Block) stripped() bool {
	for _, tx := range b.Transactions {
		for _, rq := range tx.RWSet.RangeQueries {
			if rq.Stripped {
				return true
			}
		}
	}
	return false
}

// Verify re-checks the whole hash chain, returning the first error.
func (c *Chain) Verify() error {
	var prev [32]byte
	for i, b := range c.blocks {
		if b.Number != uint64(i) {
			return fmt.Errorf("ledger: block %d stored at index %d", b.Number, i)
		}
		if b.PrevHash != prev {
			return fmt.Errorf("ledger: block %d prev-hash mismatch", i)
		}
		if got := b.ComputeHash(); got != b.Hash {
			if b.stripped() {
				return fmt.Errorf("ledger: block %d: %w", i, ErrStripped)
			}
			return fmt.Errorf("ledger: block %d hash mismatch", i)
		}
		prev = b.Hash
	}
	return nil
}

// TxCount returns the total number of transactions on the chain.
func (c *Chain) TxCount() int {
	n := 0
	for _, b := range c.blocks {
		n += len(b.Transactions)
	}
	return n
}
