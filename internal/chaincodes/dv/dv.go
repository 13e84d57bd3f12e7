// Package dv implements the Digital Voting chaincode of the paper
// (§4.3, Table 2): 1000 registered voters, 12 competing parties, an
// election that can be closed, and result counting. Its defining
// property for the study is the very large range reads — the vote
// function scans all 1000 voters and qryParties/seeResults scan all 12
// parties — which makes it the most phantom-prone chaincode and the
// worst case for Fabric++'s reordering (§5.2.3).
package dv

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Name is the chaincode identifier.
const Name = "dv"

// Voters is the size of the electorate (§4.3).
const Voters = 1000

// Parties is the number of competing parties (§4.3).
const Parties = 12

// electionKey holds the open/closed flag.
const electionKey = "election"

type voterDoc struct {
	VoterID string `json:"voterId"`
	Voted   bool   `json:"voted"`
	Party   string `json:"party,omitempty"`
}

type partyDoc struct {
	PartyID string `json:"partyId"`
	Votes   int    `json:"votes"`
}

type electionDoc struct {
	Open bool `json:"open"`
}

// AppendJSON implements chaincode.Document.
func (v voterDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"voterId":`...), v.VoterID)
	b = chaincode.AppendBool(append(b, `,"voted":`...), v.Voted)
	if v.Party != "" { // omitempty
		b = chaincode.AppendString(append(b, `,"party":`...), v.Party)
	}
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (p partyDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"partyId":`...), p.PartyID)
	b = chaincode.AppendInt(append(b, `,"votes":`...), p.Votes)
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (e electionDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendBool(append(b, `{"open":`...), e.Open)
	return append(b, '}')
}

// VoterKey is the world-state key of a voter.
func VoterKey(i int) string { return fmt.Sprintf("voter_%04d", i) }

// PartyKey is the world-state key of a party.
func PartyKey(i int) string { return fmt.Sprintf("party_%02d", i) }

// voterRangeEnd is the exclusive upper bound that covers every voter.
const voterRangeEnd = "voter_~"

// partyRangeEnd is the exclusive upper bound that covers every party.
const partyRangeEnd = "party_~"

// Chaincode is the DV contract.
type Chaincode struct{}

// New returns the contract.
func New() *Chaincode { return &Chaincode{} }

// Name implements chaincode.Chaincode.
func (c *Chaincode) Name() string { return Name }

// Init seeds the electorate, the parties and the open election flag.
func (c *Chaincode) Init(stub *chaincode.Stub) error {
	for v := 0; v < Voters; v++ {
		if err := chaincode.PutDoc(stub, VoterKey(v), &voterDoc{VoterID: fmt.Sprint(v)}); err != nil {
			return err
		}
	}
	for p := 0; p < Parties; p++ {
		if err := chaincode.PutDoc(stub, PartyKey(p), &partyDoc{PartyID: fmt.Sprint(p)}); err != nil {
			return err
		}
	}
	return chaincode.PutDoc(stub, electionKey, &electionDoc{Open: true})
}

// Invoke dispatches the functions of Table 2.
func (c *Chaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	switch fn {
	case "initLedger": // 3xW: election flag + one voter + one party
		if err := chaincode.PutDoc(stub, electionKey, &electionDoc{Open: true}); err != nil {
			return err
		}
		if err := chaincode.PutDoc(stub, VoterKey(0), &voterDoc{VoterID: "0"}); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, PartyKey(0), &partyDoc{PartyID: "0"})
	case "vote": // 1xR, 2xRR, 2xW
		if len(args) < 2 {
			return fmt.Errorf("dv: vote needs voter and party")
		}
		voter, party := args[0], args[1]
		open, err := electionOpen(stub)
		if err != nil {
			return err
		}
		if !open {
			// Election closed: the vote is rejected at the
			// application level but still produces a (read-only)
			// transaction.
			return nil
		}
		// The vote function queries all 1000 voters (double-vote
		// audit) and all 12 parties (§4.3).
		voters, err := stub.GetStateByRange("voter_", voterRangeEnd)
		if err != nil {
			return err
		}
		parties, err := stub.GetStateByRange("party_", partyRangeEnd)
		if err != nil {
			return err
		}
		var vd voterDoc
		for _, kv := range voters {
			if kv.Key == "voter_"+voter {
				if err := json.Unmarshal(kv.Value, &vd); err != nil {
					return err
				}
				break
			}
		}
		if vd.Voted {
			return nil // blocked from casting twice
		}
		vd.VoterID, vd.Voted, vd.Party = voter, true, party
		if err := chaincode.PutDoc(stub, "voter_"+voter, &vd); err != nil {
			return err
		}
		// The party's current tally comes from the range scan above —
		// no extra point read, so the op profile stays 1xR 2xRR 2xW.
		var pd partyDoc
		for _, kv := range parties {
			if kv.Key == "party_"+party {
				if err := json.Unmarshal(kv.Value, &pd); err != nil {
					return err
				}
				break
			}
		}
		pd.PartyID = party
		pd.Votes++
		return chaincode.PutDoc(stub, "party_"+party, &pd)
	case "closeElctn": // 1xR, 1xW
		e, _, err := chaincode.CloneDoc[electionDoc](stub, electionKey)
		if err != nil {
			return err
		}
		e.Open = false
		return chaincode.PutDoc(stub, electionKey, e)
	case "qryParties", "seeResults": // 1xR, 1xRR
		if _, err := electionOpen(stub); err != nil {
			return err
		}
		_, err := stub.GetStateByRange("party_", partyRangeEnd)
		return err
	default:
		return fmt.Errorf("dv: unknown function %q", fn)
	}
}

// electionOpen reads the election flag (one point read); an absent
// flag reads as closed.
func electionOpen(stub *chaincode.Stub) (bool, error) {
	e, err := chaincode.GetDoc[electionDoc](stub, electionKey)
	if e == nil {
		return false, err
	}
	return e.Open, nil
}

// Functions lists the Table 2 rows for DV.
func Functions() []workload.FunctionInfo {
	return []workload.FunctionInfo{
		{Name: "initLedger", Writes: 3},
		{Name: "vote", Reads: 1, RangeReads: 2, Writes: 2},
		{Name: "closeElctn", Reads: 1, Writes: 1},
		{Name: "qryParties", Reads: 1, RangeReads: 1},
		{Name: "seeResults", Reads: 1, RangeReads: 1},
	}
}

// NewWorkload returns the DV workload. Votes dominate (the election is
// running); qryParties and seeResults are sprinkled in; closeElctn is
// never issued during the measured window so the election stays open,
// matching the paper's three-minute voting runs.
func NewWorkload(skew float64) workload.Generator {
	z := dist.NewZipfian(Voters, skew)
	return workload.Func(func(rng *rand.Rand) workload.Invocation {
		switch rng.Intn(4) {
		case 0:
			return workload.Invocation{Chaincode: Name, Function: "qryParties"}
		case 1:
			return workload.Invocation{Chaincode: Name, Function: "seeResults"}
		default:
			voter := fmt.Sprintf("%04d", z.Next(rng))
			party := fmt.Sprintf("%02d", rng.Intn(Parties))
			return workload.Invocation{Chaincode: Name, Function: "vote", Args: []string{voter, party}}
		}
	})
}
