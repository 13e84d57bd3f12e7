// Package drm implements the Digital Rights Management chaincode of
// the paper (§4.3, Table 2): artists share artworks on chain, metadata
// is stored in the dot-blockchain-media format, right holders are
// identified by industry-standard IPI IDs, and royalties are computed
// from play counts. 200 artworks and 200 right holders are seeded.
package drm

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Name is the chaincode identifier.
const Name = "drm"

// Artworks is the seeded artwork count (§4.3).
const Artworks = 200

// Holders is the seeded right-holder count (§4.3).
const Holders = 200

type artworkDoc struct {
	ArtID  string `json:"artId"`
	Format string `json:"format"` // dot blockchain media
	Owner  string `json:"owner"`  // IPI of the right holder
	Plays  int    `json:"plays"`
	Rate   int    `json:"rate"` // royalty per play, in cents
}

type holderDoc struct {
	IPI     string `json:"ipi"`
	Works   int    `json:"works"`
	Revenue int    `json:"revenue"`
}

// AppendJSON implements chaincode.Document.
func (a artworkDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"artId":`...), a.ArtID)
	b = chaincode.AppendString(append(b, `,"format":`...), a.Format)
	b = chaincode.AppendString(append(b, `,"owner":`...), a.Owner)
	b = chaincode.AppendInt(append(b, `,"plays":`...), a.Plays)
	b = chaincode.AppendInt(append(b, `,"rate":`...), a.Rate)
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (h holderDoc) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"ipi":`...), h.IPI)
	b = chaincode.AppendInt(append(b, `,"works":`...), h.Works)
	b = chaincode.AppendInt(append(b, `,"revenue":`...), h.Revenue)
	return append(b, '}')
}

// ArtKey is an artwork's world-state key.
func ArtKey(i int) string { return fmt.Sprintf("art_%03d", i) }

// HolderKey is a right holder's world-state key.
func HolderKey(i int) string { return fmt.Sprintf("holder_%03d", i) }

// IPI formats a right holder's industry-standard identifier.
func IPI(i int) string { return fmt.Sprintf("IPI-%08d", i) }

// Chaincode is the DRM contract.
type Chaincode struct{}

// New returns the contract.
func New() *Chaincode { return &Chaincode{} }

// Name implements chaincode.Chaincode.
func (c *Chaincode) Name() string { return Name }

// Init seeds the artworks and right holders.
func (c *Chaincode) Init(stub *chaincode.Stub) error {
	for h := 0; h < Holders; h++ {
		if err := chaincode.PutDoc(stub, HolderKey(h), &holderDoc{IPI: IPI(h)}); err != nil {
			return err
		}
	}
	for a := 0; a < Artworks; a++ {
		doc := &artworkDoc{
			ArtID:  fmt.Sprint(a),
			Format: "dotBC",
			Owner:  IPI(a % Holders),
			Rate:   1 + a%9,
		}
		if err := chaincode.PutDoc(stub, ArtKey(a), doc); err != nil {
			return err
		}
	}
	return nil
}

// Invoke dispatches the functions of Table 2.
func (c *Chaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	switch fn {
	case "initLedger": // 2xW
		if err := chaincode.PutDoc(stub, HolderKey(0), &holderDoc{IPI: IPI(0)}); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, ArtKey(0), &artworkDoc{ArtID: "0", Format: "dotBC", Owner: IPI(0)})
	case "create": // 1xR, 2xW: register a new artwork for a holder
		art, holder, err := artHolderArgs(args)
		if err != nil {
			return err
		}
		h, _, err := chaincode.CloneDoc[holderDoc](stub, HolderKey(holder))
		if err != nil {
			return err
		}
		h.IPI = IPI(holder)
		h.Works++
		if err := chaincode.PutDoc(stub, HolderKey(holder), h); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, ArtKey(art), &artworkDoc{
			ArtID: fmt.Sprint(art), Format: "dotBC", Owner: IPI(holder), Rate: 1,
		})
	case "play": // 2xR, 1xW: bump the play count
		art, holder, err := artHolderArgs(args)
		if err != nil {
			return err
		}
		a, _, err := chaincode.CloneDoc[artworkDoc](stub, ArtKey(art))
		if err != nil {
			return err
		}
		if _, err := chaincode.GetDoc[holderDoc](stub, HolderKey(holder)); err != nil {
			return err
		}
		a.Plays++
		return chaincode.PutDoc(stub, ArtKey(art), a)
	case "queryRghts": // 2xR
		art, holder, err := artHolderArgs(args)
		if err != nil {
			return err
		}
		if _, err := stub.GetState(ArtKey(art)); err != nil {
			return err
		}
		_, err = stub.GetState(HolderKey(holder))
		return err
	case "viewMetaData": // 1xR
		art, err := artArg(args)
		if err != nil {
			return err
		}
		_, err = stub.GetState(ArtKey(art))
		return err
	case "calcRevenue": // 1xRR*: all artworks of one holder
		if len(args) < 1 {
			return fmt.Errorf("drm: calcRevenue needs holder IPI")
		}
		if stub.SupportsRichQueries() {
			_, err := stub.GetQueryResult(fmt.Sprintf(`{"owner":%q}`, args[0]))
			return err
		}
		// LevelDB fallback: checked scan over all artworks.
		_, err := stub.GetStateByRange("art_", "art_~")
		return err
	default:
		return fmt.Errorf("drm: unknown function %q", fn)
	}
}

func artArg(args []string) (int, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("drm: missing artwork argument")
	}
	a, err := strconv.Atoi(args[0])
	if err != nil || a < 0 {
		return 0, fmt.Errorf("drm: bad artwork %q", args[0])
	}
	return a % Artworks, nil
}

func artHolderArgs(args []string) (int, int, error) {
	a, err := artArg(args)
	if err != nil {
		return 0, 0, err
	}
	if len(args) < 2 {
		return 0, 0, fmt.Errorf("drm: missing holder argument")
	}
	h, err := strconv.Atoi(args[1])
	if err != nil || h < 0 {
		return 0, 0, fmt.Errorf("drm: bad holder %q", args[1])
	}
	return a, h % Holders, nil
}

// Functions lists the Table 2 rows for DRM.
func Functions() []workload.FunctionInfo {
	return []workload.FunctionInfo{
		{Name: "initLedger", Writes: 2},
		{Name: "create", Reads: 1, Writes: 2},
		{Name: "play", Reads: 2, Writes: 1},
		{Name: "queryRghts", Reads: 2},
		{Name: "viewMetaData", Reads: 1},
		{Name: "calcRevenue", RangeReads: 1, Unchecked: true},
	}
}

// NewWorkload returns the DRM workload: a uniform mix of the five
// post-init functions; artworks are drawn with the given Zipfian skew.
func NewWorkload(skew float64) workload.Generator {
	z := dist.NewZipfian(Artworks, skew)
	return workload.Func(func(rng *rand.Rand) workload.Invocation {
		art := z.Next(rng)
		holder := art % Holders
		switch rng.Intn(5) {
		case 0:
			return workload.Invocation{Chaincode: Name, Function: "create",
				Args: []string{fmt.Sprint(art), fmt.Sprint(holder)}}
		case 1:
			return workload.Invocation{Chaincode: Name, Function: "play",
				Args: []string{fmt.Sprint(art), fmt.Sprint(holder)}}
		case 2:
			return workload.Invocation{Chaincode: Name, Function: "queryRghts",
				Args: []string{fmt.Sprint(art), fmt.Sprint(holder)}}
		case 3:
			return workload.Invocation{Chaincode: Name, Function: "viewMetaData",
				Args: []string{fmt.Sprint(art)}}
		default:
			return workload.Invocation{Chaincode: Name, Function: "calcRevenue",
				Args: []string{IPI(holder)}}
		}
	})
}
