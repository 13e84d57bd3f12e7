// Package ehr implements the Electronic Health Records chaincode of
// the paper (§4.3, Table 2): access-credential management for patient
// profiles and health records. Every patient owns two entities — a
// profile and an EHR — and medical actors are granted or revoked
// access to either. Only credentials and logical connections live on
// chain; the records themselves are off-chain.
//
// The paper populates 100 profiles and 100 EHRs and reports >40 %
// failed transactions for this chaincode under default settings — the
// small hot key space is intentional.
package ehr

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Name is the chaincode identifier.
const Name = "ehr"

// Patients is the number of patients seeded by Init (100 profiles +
// 100 EHRs, §4.3).
const Patients = 100

// Actors is the number of medical actors that request access.
const Actors = 50

type profile struct {
	PatientID string `json:"patientId"`
	Access    actors `json:"access"`
	Updates   int    `json:"updates"`
}

type record struct {
	PatientID string `json:"patientId"`
	Access    actors `json:"access"`
	Entries   int    `json:"entries"`
}

// AppendJSON implements chaincode.Document.
func (p profile) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"patientId":`...), p.PatientID)
	b = chaincode.AppendSet(append(b, `,"access":`...), p.Access)
	b = chaincode.AppendInt(append(b, `,"updates":`...), p.Updates)
	return append(b, '}')
}

// AppendJSON implements chaincode.Document.
func (r record) AppendJSON(b []byte) []byte {
	b = chaincode.AppendString(append(b, `{"patientId":`...), r.PatientID)
	b = chaincode.AppendSet(append(b, `,"access":`...), r.Access)
	b = chaincode.AppendInt(append(b, `,"entries":`...), r.Entries)
	return append(b, '}')
}

// actors is an access list: the actors granted access, sorted in byte
// order and distinct. On the chain it is a JSON object mapping each
// actor to true, null for a nil list and {} for an empty one. A stored
// list is shared with every replica, so it is never changed: with
// returns a new one. Its MarshalJSON is declared in ehr_test.go, the
// oracle AppendJSON is tested against: nothing outside the tests
// encodes a document by reflection.
type actors []string

// with returns a with actor granted or revoked. A list that already
// says so is returned as it is, except that nil becomes empty; any
// other is copied into an exact-length slice.
func (a actors) with(actor string, grant bool) actors {
	i, member := slices.BinarySearch(a, actor)
	switch {
	case member == grant && a != nil:
		return a
	case grant:
		out := make(actors, len(a)+1)
		copy(out, a[:i])
		out[i] = actor
		copy(out[i+1:], a[i:])
		return out
	case !member:
		return actors{}
	}
	out := make(actors, len(a)-1)
	copy(out, a[:i])
	copy(out[i:], a[i+1:])
	return out
}

// UnmarshalJSON decodes the map[string]bool that a stands for. A member
// mapped to false is an error: no function writes one, and dropping it
// would change what the next write of the document stores.
func (a *actors) UnmarshalJSON(raw []byte) error {
	var m map[string]bool
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(actors, 0, len(m))
	for actor, granted := range m {
		if !granted {
			return fmt.Errorf("ehr: access of %q is false; an access list holds only grants", actor)
		}
		out = append(out, actor)
	}
	slices.Sort(out)
	*a = out
	return nil
}

// Chaincode is the EHR contract. The zero value is ready to use.
type Chaincode struct{}

// New returns the contract.
func New() *Chaincode { return &Chaincode{} }

// Name implements chaincode.Chaincode.
func (c *Chaincode) Name() string { return Name }

// keyTable is one entity's key space: the keys of the seeded patients
// formatted once — an invocation looks each key up once per read and
// once per write, and every workload draws patients below Patients —
// and the format itself for any other patient.
type keyTable struct {
	format string
	keys   [Patients]string
}

func newKeyTable(format string) *keyTable {
	t := &keyTable{format: format}
	for p := range t.keys {
		t.keys[p] = fmt.Sprintf(format, p)
	}
	return t
}

func (t *keyTable) key(patient int) string {
	if uint(patient) < Patients {
		return t.keys[patient]
	}
	return fmt.Sprintf(t.format, patient)
}

var profileKeys, recordKeys = newKeyTable("profile_%03d"), newKeyTable("ehr_%03d")

// ProfileKey is the world-state key of a patient's profile.
func ProfileKey(patient int) string { return profileKeys.key(patient) }

// RecordKey is the world-state key of a patient's EHR.
func RecordKey(patient int) string { return recordKeys.key(patient) }

// actorNames holds the names of the medical actors, formatted once:
// the workload draws one for four of its nine functions.
var actorNames = func() (names [Actors]string) {
	for i := range names {
		names[i] = fmt.Sprintf("actor%02d", i)
	}
	return names
}()

func actorName(i int) string { return actorNames[i] }

// Init seeds the 100 profiles and 100 EHRs.
func (c *Chaincode) Init(stub *chaincode.Stub) error {
	for p := 0; p < Patients; p++ {
		if err := putPair(stub, p); err != nil {
			return err
		}
	}
	return nil
}

// putPair (re)creates one patient's profile and EHR.
func putPair(stub *chaincode.Stub, patient int) error {
	id := strconv.Itoa(patient)
	if err := chaincode.PutDoc(stub, ProfileKey(patient), &profile{
		PatientID: id, Access: actors{},
	}); err != nil {
		return err
	}
	return chaincode.PutDoc(stub, RecordKey(patient), &record{
		PatientID: id, Access: actors{},
	})
}

// Invoke dispatches the functions of Table 2.
func (c *Chaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	switch fn {
	case "initLedger": // 2xW: (re)create one patient's pair
		patient, err := patientArg(args)
		if err != nil {
			return err
		}
		return putPair(stub, patient)
	case "addEhr": // 2xR, 2xW
		patient, err := patientArg(args)
		if err != nil {
			return err
		}
		p, _, err := chaincode.CloneDoc[profile](stub, ProfileKey(patient))
		if err != nil {
			return err
		}
		r, _, err := chaincode.CloneDoc[record](stub, RecordKey(patient))
		if err != nil {
			return err
		}
		r.Entries++
		p.Updates++
		if err := chaincode.PutDoc(stub, RecordKey(patient), r); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, ProfileKey(patient), p)
	case "grantProfileAccess", "revokeProfileAccess": // 1xR, 1xW
		patient, actor, err := patientActorArgs(args)
		if err != nil {
			return err
		}
		p, _, err := chaincode.CloneDoc[profile](stub, ProfileKey(patient))
		if err != nil {
			return err
		}
		p.Access = p.Access.with(actor, fn == "grantProfileAccess")
		return chaincode.PutDoc(stub, ProfileKey(patient), p)
	case "grantEhrAccess", "revokeEhrAccess": // 2xR, 2xW
		patient, actor, err := patientActorArgs(args)
		if err != nil {
			return err
		}
		p, _, err := chaincode.CloneDoc[profile](stub, ProfileKey(patient))
		if err != nil {
			return err
		}
		r, _, err := chaincode.CloneDoc[record](stub, RecordKey(patient))
		if err != nil {
			return err
		}
		grant := fn == "grantEhrAccess"
		r.Access = r.Access.with(actor, grant)
		p.Access = p.Access.with(actor, grant)
		if err := chaincode.PutDoc(stub, RecordKey(patient), r); err != nil {
			return err
		}
		return chaincode.PutDoc(stub, ProfileKey(patient), p)
	case "readProfile", "viewPartialProfile": // 1xR
		patient, err := patientArg(args)
		if err != nil {
			return err
		}
		_, err = stub.GetState(ProfileKey(patient))
		return err
	case "viewEHR", "queryEHR": // 1xR
		patient, err := patientArg(args)
		if err != nil {
			return err
		}
		_, err = stub.GetState(RecordKey(patient))
		return err
	default:
		return fmt.Errorf("ehr: unknown function %q", fn)
	}
}

func patientArg(args []string) (int, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("ehr: missing patient argument")
	}
	p, err := strconv.Atoi(args[0])
	if err != nil || p < 0 {
		return 0, fmt.Errorf("ehr: bad patient %q", args[0])
	}
	return p % Patients, nil
}

func patientActorArgs(args []string) (int, string, error) {
	p, err := patientArg(args)
	if err != nil {
		return 0, "", err
	}
	if len(args) < 2 {
		return 0, "", fmt.Errorf("ehr: missing actor argument")
	}
	return p, args[1], nil
}

// Functions lists the invocable functions with their operation counts
// (reads, writes, range reads) exactly as in Table 2.
func Functions() []workload.FunctionInfo {
	return []workload.FunctionInfo{
		{Name: "initLedger", Reads: 0, Writes: 2},
		{Name: "addEhr", Reads: 2, Writes: 2},
		{Name: "grantProfileAccess", Reads: 1, Writes: 1},
		{Name: "readProfile", Reads: 1},
		{Name: "revokeProfileAccess", Reads: 1, Writes: 1},
		{Name: "viewPartialProfile", Reads: 1},
		{Name: "revokeEhrAccess", Reads: 2, Writes: 2},
		{Name: "viewEHR", Reads: 1},
		{Name: "grantEhrAccess", Reads: 2, Writes: 2},
		{Name: "queryEHR", Reads: 1},
	}
}

// NewWorkload returns the uniform EHR workload: all nine post-init
// functions invoked equally often, patients drawn with the given
// Zipfian skew (Table 3 default: skew 1).
func NewWorkload(skew float64) workload.Generator {
	z := dist.NewZipfian(Patients, skew)
	fns := []string{
		"addEhr", "grantProfileAccess", "readProfile", "revokeProfileAccess",
		"viewPartialProfile", "revokeEhrAccess", "viewEHR", "grantEhrAccess",
		"queryEHR",
	}
	return workload.Func(func(rng *rand.Rand) workload.Invocation {
		fn := fns[rng.Intn(len(fns))]
		patient := z.Next(rng)
		args := append(make([]string, 0, 2), strconv.Itoa(patient))
		switch fn {
		case "grantProfileAccess", "revokeProfileAccess", "grantEhrAccess", "revokeEhrAccess":
			args = append(args, actorName(rng.Intn(Actors)))
		}
		return workload.Invocation{Chaincode: Name, Function: fn, Args: args}
	})
}
