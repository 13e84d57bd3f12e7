// Package scm implements the Supply Chain Management chaincode of the
// paper (§4.3, Table 2): logistic service providers (LSPs) and
// logistic units tracked by GTIN/SSCC identifiers, advanced shipping
// notices, shipping between LSPs, and stock queries. Five LSPs are
// seeded — four with 400 logistic units and one with 800 — and
// queryASN scans all units of a random LSP (400–800 keys), which is
// what drives this chaincode's phantom read conflicts (Fig 10).
package scm

import (
	"fmt"
	"math/rand"

	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Name is the chaincode identifier.
const Name = "scm"

// LSPs is the number of logistic service providers.
const LSPs = 5

// UnitsPerLSP is the seeded unit count per provider; the last provider
// gets DoubleLSPUnits (§4.3).
const UnitsPerLSP = 400

// DoubleLSPUnits is the unit count of the fifth provider.
const DoubleLSPUnits = 800

// TotalUnits is the number of seeded logistic units.
const TotalUnits = 4*UnitsPerLSP + DoubleLSPUnits

type unitDoc struct {
	SSCC  string `json:"sscc"` // serial shipping container code
	GTIN  string `json:"gtin"` // global trade item number
	LSP   string `json:"lsp"`
	Items int    `json:"items"`
}

type lspDoc struct {
	LSPID string `json:"lspId"`
	Moves int    `json:"moves"`
}

type asnDoc struct {
	ASNID string `json:"asnId"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// AppendJSON implements chaincode.Document.
func (u unitDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"sscc":`...), u.SSCC)
	b = chaincode.AppendString(append(b, `,"gtin":`...), u.GTIN)
	b = chaincode.AppendString(append(b, `,"lsp":`...), u.LSP)
	b = chaincode.AppendInt(append(b, `,"items":`...), u.Items)
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (l lspDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"lspId":`...), l.LSPID)
	b = chaincode.AppendInt(append(b, `,"moves":`...), l.Moves)
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (a asnDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"asnId":`...), a.ASNID)
	b = chaincode.AppendString(append(b, `,"from":`...), a.From)
	b = chaincode.AppendString(append(b, `,"to":`...), a.To)
	return append(b, '}')
}

// LSPName formats a provider identifier.
func LSPName(i int) string { return fmt.Sprintf("LSP%d", i) }

// LSPKey is the provider's world-state key.
func LSPKey(i int) string { return "lsp_" + LSPName(i) }

// UnitKey is a logistic unit's world-state key. Units are prefixed by
// their current LSP so that queryASN can range-scan one provider's
// stock.
func UnitKey(lsp string, unit int) string { return fmt.Sprintf("lu_%s_%04d", lsp, unit) }

// unitRange returns the half-open key interval covering all units of
// one provider.
func unitRange(lsp string) (string, string) {
	return "lu_" + lsp + "_", "lu_" + lsp + "_~"
}

// unitsOf returns how many units provider i is seeded with.
func unitsOf(i int) int {
	if i == LSPs-1 {
		return DoubleLSPUnits
	}
	return UnitsPerLSP
}

// Chaincode is the SCM contract.
type Chaincode struct{}

// New returns the contract.
func New() *Chaincode { return &Chaincode{} }

// Name implements chaincode.Chaincode.
func (c *Chaincode) Name() string { return Name }

// Init seeds the five providers and their logistic units.
func (c *Chaincode) Init(stub *chaincode.Stub) error {
	for i := 0; i < LSPs; i++ {
		lsp := LSPName(i)
		if err := chaincode.PutDoc(stub, LSPKey(i), &lspDoc{LSPID: lsp}); err != nil {
			return err
		}
		for u := 0; u < unitsOf(i); u++ {
			doc := &unitDoc{
				SSCC:  fmt.Sprintf("SSCC-%d-%04d", i, u),
				GTIN:  fmt.Sprintf("GTIN-%06d", i*10000+u),
				LSP:   lsp,
				Items: 1 + u%5,
			}
			if err := chaincode.PutDoc(stub, UnitKey(lsp, u), doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Invoke dispatches the functions of Table 2.
func (c *Chaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	switch fn {
	case "initLedger": // 2xW: one provider + one unit
		if err := chaincode.PutDoc(stub, LSPKey(0), &lspDoc{LSPID: LSPName(0)}); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, UnitKey(LSPName(0), 0), &unitDoc{LSP: LSPName(0), Items: 1})
	case "pushASN": // 1xW
		if len(args) < 3 {
			return fmt.Errorf("scm: pushASN needs id, from, to")
		}
		return chaincode.PutDoc(stub, "asn_"+args[0], &asnDoc{ASNID: args[0], From: args[1], To: args[2]})
	case "Ship": // 2xR, 2xW: move a unit between providers
		if len(args) < 3 {
			return fmt.Errorf("scm: Ship needs unitKey, srcLSP, dstLSP")
		}
		unitKey, dst := args[0], args[2]
		u, found, err := chaincode.CloneDoc[unitDoc](stub, unitKey)
		if err != nil {
			return err
		}
		d, _, err := chaincode.CloneDoc[lspDoc](stub, "lsp_"+dst)
		if err != nil {
			return err
		}
		if !found {
			// Unit already shipped away by a concurrent transaction:
			// record the attempt on the destination provider only.
			d.LSPID = dst
			d.Moves++
			return chaincode.PutDoc(stub, "lsp_"+dst, d)
		}
		// Delete at the source prefix, insert at the destination
		// prefix (upon successful shipping the unit is removed from
		// the originating LSP and added to the destination, §4.3).
		if err := stub.DelState(unitKey); err != nil {
			return err
		}
		u.LSP = dst
		newKey := fmt.Sprintf("lu_%s_%s", dst, u.SSCC)
		return chaincode.PutDoc(stub, newKey, u)
	case "Unload": // 2xR, 2xW: extract the embedded trade items
		if len(args) < 2 {
			return fmt.Errorf("scm: Unload needs unitKey and lsp")
		}
		unitKey, lsp := args[0], args[1]
		u, found, err := chaincode.CloneDoc[unitDoc](stub, unitKey)
		if err != nil {
			return err
		}
		l, _, err := chaincode.CloneDoc[lspDoc](stub, "lsp_"+lsp)
		if err != nil {
			return err
		}
		l.LSPID = lsp
		l.Moves++
		if err := chaincode.PutDoc(stub, "lsp_"+lsp, l); err != nil {
			return err
		}
		if !found {
			return chaincode.PutDoc(stub, unitKey+"_items", &unitDoc{})
		}
		u.Items = 0
		return chaincode.PutDoc(stub, unitKey, u)
	case "queryASN": // 1xRR: all units of one provider (400–800 keys)
		if len(args) < 1 {
			return fmt.Errorf("scm: queryASN needs lsp")
		}
		start, end := unitRange(args[0])
		_, err := stub.GetStateByRange(start, end)
		return err
	case "queryStock": // 1xRR*: rich query; no phantom detection
		if len(args) < 1 {
			return fmt.Errorf("scm: queryStock needs lsp")
		}
		if stub.SupportsRichQueries() {
			_, err := stub.GetQueryResult(fmt.Sprintf(`{"lsp":%q}`, args[0]))
			return err
		}
		// LevelDB fallback: plain (checked) range scan.
		start, end := unitRange(args[0])
		_, err := stub.GetStateByRange(start, end)
		return err
	default:
		return fmt.Errorf("scm: unknown function %q", fn)
	}
}

// Functions lists the Table 2 rows for SCM.
func Functions() []workload.FunctionInfo {
	return []workload.FunctionInfo{
		{Name: "initLedger", Writes: 2},
		{Name: "pushASN", Writes: 1},
		{Name: "Ship", Reads: 2, Writes: 2},
		{Name: "Unload", Reads: 2, Writes: 2},
		{Name: "queryASN", RangeReads: 1},
		{Name: "queryStock", RangeReads: 1, Unchecked: true},
	}
}

// NewWorkload returns the SCM workload: a uniform mix of pushASN,
// Ship, Unload, queryASN and queryStock; units are drawn with the
// given Zipfian skew and providers uniformly.
func NewWorkload(skew float64) workload.Generator {
	z := dist.NewZipfian(UnitsPerLSP, skew)
	asnSeq := 0
	return workload.Func(func(rng *rand.Rand) workload.Invocation {
		lspIdx := rng.Intn(LSPs)
		lsp := LSPName(lspIdx)
		switch rng.Intn(5) {
		case 0:
			asnSeq++
			dst := LSPName(rng.Intn(LSPs))
			return workload.Invocation{Chaincode: Name, Function: "pushASN",
				Args: []string{fmt.Sprintf("%06d", asnSeq), lsp, dst}}
		case 1:
			unit := z.Next(rng) % unitsOf(lspIdx)
			dst := LSPName(rng.Intn(LSPs))
			return workload.Invocation{Chaincode: Name, Function: "Ship",
				Args: []string{UnitKey(lsp, unit), lsp, dst}}
		case 2:
			unit := z.Next(rng) % unitsOf(lspIdx)
			return workload.Invocation{Chaincode: Name, Function: "Unload",
				Args: []string{UnitKey(lsp, unit), lsp}}
		case 3:
			return workload.Invocation{Chaincode: Name, Function: "queryASN", Args: []string{lsp}}
		default:
			return workload.Invocation{Chaincode: Name, Function: "queryStock", Args: []string{lsp}}
		}
	})
}
