// Package gen implements the paper's chaincode and workload generator
// (§4.4). The chaincode generator takes the number of functions and,
// per function, the number of read / insert / update / delete / range
// read (and optionally rich query) actions, and produces an executable
// chaincode; Render additionally emits syntactically correct Go source
// for it. The workload generator produces transaction streams with a
// configurable type mix (read/insert/update/delete/range percentages)
// and Zipfian key distribution.
//
// The canonical instance is genChain: five functions with equally
// distributed read, insert, update, delete and range-read actions over
// a world state of 100,000 keys.
package gen

import (
	"fmt"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// DefaultKeys is the genChain world-state size (§4.4: "a large number
// of keys (100,000 keys) to run experiments with reduced transaction
// conflicts").
const DefaultKeys = 100000

// rangeWidths are the widths a generated range read draws from (§4.4:
// ranges of 2, 4 or 8 keys).
var rangeWidths = [...]int{2, 4, maxRangeWidth}

// The key count a spec may seed: a range read needs more keys than its
// widest width to start at, and KeyName's six digits sort in index
// order only up to key_999999.
const (
	maxRangeWidth = 8
	minKeys       = maxRangeWidth + 1
	maxKeys       = 1000000
)

// FunctionSpec declares one generated function's actions.
type FunctionSpec struct {
	Name        string
	Reads       int // GetState on an existing key
	Inserts     int // PutState on a fresh key
	Updates     int // GetState + PutState on an existing key
	Deletes     int // DelState on a unique existing key
	RangeReads  int // GetStateByRange over a small interval
	RichQueries int // GetQueryResult (CouchDB only)
}

// Ops reports the total number of key arguments the function consumes.
func (f FunctionSpec) Ops() int {
	return f.Reads + f.Inserts + f.Updates + f.Deletes + f.RangeReads + f.RichQueries
}

// ChaincodeSpec declares a generated chaincode.
type ChaincodeSpec struct {
	Name      string
	Keys      int // seeded world-state size
	Functions []FunctionSpec
}

// validIdent reports whether s can be emitted as a Go identifier
// (Render uses the chaincode name as the package name and function
// names as method names, so anything else would break the
// "syntactically correct chaincode" promise of §4.4).
func validIdent(s string) bool {
	// The blank identifier is a valid token but not a usable package
	// or method name ("package _" and "c._(...)" do not compile).
	if s == "" || s == "_" || token.Lookup(s).IsKeyword() {
		return false
	}
	for i, r := range s {
		if unicode.IsLetter(r) || r == '_' || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// Validate checks the spec for configuration errors. Names must be
// valid Go identifiers and function names must not collide with the
// generated Contract's own methods — NewChaincode and Render accept
// exactly the same specs.
func (s ChaincodeSpec) Validate() error {
	if !validIdent(s.Name) {
		return fmt.Errorf("gen: chaincode name %q is not a valid Go identifier", s.Name)
	}
	if s.Keys < minKeys {
		return fmt.Errorf("gen: chaincode %q seeds %d keys, fewer than the %d a range read of up to %d keys draws from",
			s.Name, s.Keys, minKeys, maxRangeWidth)
	}
	if s.Keys > maxKeys {
		return fmt.Errorf("gen: chaincode %q seeds %d keys, more than the %d six-digit key names sort in index order",
			s.Name, s.Keys, maxKeys)
	}
	if len(s.Functions) == 0 {
		return fmt.Errorf("gen: chaincode %q has no functions", s.Name)
	}
	seen := map[string]bool{}
	for _, f := range s.Functions {
		if !validIdent(f.Name) {
			return fmt.Errorf("gen: function name %q is not a valid Go identifier", f.Name)
		}
		switch f.Name {
		case "Name", "Init", "Invoke":
			return fmt.Errorf("gen: function name %q collides with a generated method", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("gen: duplicate function %q", f.Name)
		}
		seen[f.Name] = true
		if f.Ops() == 0 {
			return fmt.Errorf("gen: function %q performs no actions", f.Name)
		}
	}
	return nil
}

// GenChainSpec is the default five-function genChain chaincode.
func GenChainSpec() ChaincodeSpec {
	return ChaincodeSpec{
		Name: "genChain",
		Keys: DefaultKeys,
		Functions: []FunctionSpec{
			{Name: "readOp", Reads: 1},
			{Name: "insertOp", Inserts: 1},
			{Name: "updateOp", Updates: 1},
			{Name: "deleteOp", Deletes: 1},
			{Name: "rangeOp", RangeReads: 1},
		},
	}
}

// KeyName formats a seeded world-state key: fmt's "key_%06d".
func KeyName(i int) string { return padded("key_", i, 6) }

// keyLen is the length of KeyName(i) for every index a spec may seed.
const keyLen = len("key_") + 6

// padded returns prefix followed by i zero-padded to width characters,
// a sign included, as fmt's "%0<width>d" prints it.
func padded(prefix string, i, width int) string {
	var buf [32]byte
	var num [20]byte
	b := append(buf[:0], prefix...)
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	if digits[0] == '-' {
		b = append(b, '-')
		digits = digits[1:]
		width--
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// insertKeyName formats a fresh key that cannot collide with seeded
// ones.
func insertKeyName(seq string) string { return "new_" + seq }

// Chaincode is the executable form of a generated chaincode.
type Chaincode struct {
	spec ChaincodeSpec
	byFn map[string]FunctionSpec
	// keys is KeyName(0) … KeyName(spec.Keys-1) end to end: key reads
	// each seeded key name as a substring of it, so neither genesis nor
	// an invocation formats one, and a string header per key is not kept.
	keys string
}

// updateValues are the values an update writes, {"v":1} … {"v":7}
// (an insert writes the first), shared by every write like Init's
// documents: a stored value is never written into, and each is capped
// at its length.
var updateValues = func() (vs [7][]byte) {
	for i := range vs {
		v := []byte(fmt.Sprintf(`{"v":%d}`, i+1))
		vs[i] = v[:len(v):len(v)]
	}
	return vs
}()

// NewChaincode compiles a spec into an executable chaincode.
func NewChaincode(spec ChaincodeSpec) (*Chaincode, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cc := &Chaincode{spec: spec, byFn: map[string]FunctionSpec{}}
	for _, f := range spec.Functions {
		cc.byFn[f.Name] = f
	}
	var keys strings.Builder
	keys.Grow(spec.Keys * keyLen)
	name := []byte(KeyName(0))
	for i := 0; i < spec.Keys; i++ {
		keys.Write(name)
		// Count the digits up to the next index's name.
		d := keyLen - 1
		for ; name[d] == '9'; d-- {
			name[d] = '0'
		}
		name[d]++
	}
	cc.keys = keys.String()
	return cc, nil
}

// key returns KeyName(i), from the table when i is a seeded index.
func (c *Chaincode) key(i int) string {
	if uint(i) >= uint(c.spec.Keys) {
		return KeyName(i)
	}
	return c.keys[i*keyLen : (i+1)*keyLen]
}

// MustChaincode is NewChaincode for known-good specs.
func MustChaincode(spec ChaincodeSpec) *Chaincode {
	cc, err := NewChaincode(spec)
	if err != nil {
		panic(err)
	}
	return cc
}

// Name implements chaincode.Chaincode.
func (c *Chaincode) Name() string { return c.spec.Name }

// Spec returns the compiled specification.
func (c *Chaincode) Spec() ChaincodeSpec { return c.spec }

// Init seeds the world state with spec.Keys JSON documents, in
// ascending key order, into a write set sized for them once. There are
// 97 distinct documents, encoded once and shared by every key that
// holds one: a stored value is never written into, and each is capped
// at its length so that an append to one cannot either.
func (c *Chaincode) Init(stub *chaincode.Stub) error {
	var docs [97][]byte
	for g := range docs {
		doc := []byte(fmt.Sprintf(`{"v":0,"grp":%d}`, g))
		docs[g] = doc[:len(doc):len(doc)]
	}
	stub.Grow(c.spec.Keys)
	for i := 0; i < c.spec.Keys; i++ {
		if err := stub.PutState(c.key(i), docs[i%len(docs)]); err != nil {
			return err
		}
	}
	return nil
}

// Invoke executes a generated function. Arguments supply one token per
// action, in spec order: key indices for reads/updates/deletes, a
// sequence token for inserts, "start:width" for range reads, and a
// group number for rich queries.
func (c *Chaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	f, ok := c.byFn[fn]
	if !ok {
		return fmt.Errorf("%s: unknown function %q", c.spec.Name, fn)
	}
	if len(args) != f.Ops() {
		return fmt.Errorf("%s.%s: got %d args, want %d", c.spec.Name, fn, len(args), f.Ops())
	}
	next := func() string {
		a := args[0]
		args = args[1:]
		return a
	}
	for i := 0; i < f.Reads; i++ {
		if _, err := stub.GetState(c.keyArg(next())); err != nil {
			return err
		}
	}
	for i := 0; i < f.Inserts; i++ {
		if err := stub.PutState(insertKeyName(next()), updateValues[0]); err != nil {
			return err
		}
	}
	for i := 0; i < f.Updates; i++ {
		key := c.keyArg(next())
		raw, err := stub.GetState(key)
		if err != nil {
			return err
		}
		// Derive the new value, {"v":1+len(raw)%7}, from the old.
		if err := stub.PutState(key, updateValues[len(raw)%7]); err != nil {
			return err
		}
	}
	for i := 0; i < f.Deletes; i++ {
		if err := stub.DelState(c.keyArg(next())); err != nil {
			return err
		}
	}
	for i := 0; i < f.RangeReads; i++ {
		start, width, err := rangeArg(next())
		if err != nil {
			return err
		}
		if _, err := stub.GetStateByRange(c.key(start), c.key(start+width)); err != nil {
			return err
		}
	}
	for i := 0; i < f.RichQueries; i++ {
		grp := next()
		if !stub.SupportsRichQueries() {
			// Graceful degradation on LevelDB: a point read keeps the
			// generated code runnable on either backend.
			if _, err := stub.GetState(c.keyArg(grp)); err != nil {
				return err
			}
			continue
		}
		if _, err := stub.GetQueryResult(fmt.Sprintf(`{"grp":%s}`, grp)); err != nil {
			return err
		}
	}
	return nil
}

// keyArg resolves a key argument: an index names a seeded key.
func (c *Chaincode) keyArg(a string) string {
	if n, err := strconv.Atoi(a); err == nil {
		return c.key(n)
	}
	return a // already a key name (insert sequence tokens etc.)
}

// rangeArg parses a range read's "start:width" argument.
func rangeArg(a string) (start, width int, err error) {
	s, w, ok := strings.Cut(a, ":")
	start, errStart := strconv.Atoi(s)
	width, errWidth := strconv.Atoi(w)
	if !ok || errStart != nil || errWidth != nil {
		return 0, 0, fmt.Errorf("gen: bad range argument %q", a)
	}
	if width <= 0 {
		return 0, 0, fmt.Errorf("gen: non-positive range width in %q", a)
	}
	return start, width, nil
}

// Mix is a transaction-type distribution in relative weights.
type Mix struct {
	Read   float64
	Insert float64
	Update float64
	Delete float64
	Range  float64
}

// The paper's five "x-heavy" workloads: 80% of one type, uniform rest
// (§4.4), plus the uniform read/update mix used for the skew sweep.
var (
	ReadHeavy   = Mix{Read: 80, Insert: 5, Update: 5, Delete: 5, Range: 5}
	InsertHeavy = Mix{Read: 5, Insert: 80, Update: 5, Delete: 5, Range: 5}
	UpdateHeavy = Mix{Read: 5, Insert: 5, Update: 80, Delete: 5, Range: 5}
	DeleteHeavy = Mix{Read: 5, Insert: 5, Update: 5, Delete: 80, Range: 5}
	RangeHeavy  = Mix{Read: 5, Insert: 5, Update: 5, Delete: 5, Range: 80}
	// UniformRU is the 50/50 read/update mix of the Zipf-skew
	// experiments (§4.4: "a uniform workload of read and update
	// transactions").
	UniformRU = Mix{Read: 50, Update: 50}
)

// MixByName resolves the paper's workload abbreviations (RH, IH, UH,
// DH, RaH).
func MixByName(name string) (Mix, error) {
	switch name {
	case "RH":
		return ReadHeavy, nil
	case "IH":
		return InsertHeavy, nil
	case "UH":
		return UpdateHeavy, nil
	case "DH":
		return DeleteHeavy, nil
	case "RaH":
		return RangeHeavy, nil
	case "RU":
		return UniformRU, nil
	}
	return Mix{}, fmt.Errorf("gen: unknown workload %q", name)
}

// NewWorkload builds the genChain workload generator: transactions
// drawn from mix, keys drawn Zipfian with the given skew over the
// seeded key space. Inserts get globally unique fresh keys; deletes
// get unique seeded keys (walking up from index 0) so that
// insert/delete transactions never conflict (§5.1.5).
func NewWorkload(spec ChaincodeSpec, mix Mix, skew float64) workload.Generator {
	z := dist.NewZipfian(spec.Keys, skew)
	insertSeq := 0
	deleteSeq := 0
	pick := workload.NewWeighted(
		[]workload.Generator{
			workload.Func(func(rng *rand.Rand) workload.Invocation {
				return workload.Invocation{Chaincode: spec.Name, Function: "readOp",
					Args: []string{strconv.Itoa(z.Next(rng))}}
			}),
			workload.Func(func(rng *rand.Rand) workload.Invocation {
				insertSeq++
				return workload.Invocation{Chaincode: spec.Name, Function: "insertOp",
					Args: []string{padded("ins", insertSeq, 8)}}
			}),
			workload.Func(func(rng *rand.Rand) workload.Invocation {
				return workload.Invocation{Chaincode: spec.Name, Function: "updateOp",
					Args: []string{strconv.Itoa(z.Next(rng))}}
			}),
			workload.Func(func(rng *rand.Rand) workload.Invocation {
				deleteSeq++
				return workload.Invocation{Chaincode: spec.Name, Function: "deleteOp",
					Args: []string{strconv.Itoa(deleteSeq % spec.Keys)}}
			}),
			workload.Func(func(rng *rand.Rand) workload.Invocation {
				w := rangeWidths[rng.Intn(len(rangeWidths))]
				start := rng.Intn(spec.Keys - w)
				return workload.Invocation{Chaincode: spec.Name, Function: "rangeOp",
					Args: []string{rangeToken(start, w)}}
			}),
		},
		[]float64{mix.Read, mix.Insert, mix.Update, mix.Delete, mix.Range},
	)
	return pick
}

// rangeToken formats a range read's argument, "start:width".
func rangeToken(start, width int) string {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(start), 10)
	b = append(b, ':')
	return string(strconv.AppendInt(b, int64(width), 10))
}
