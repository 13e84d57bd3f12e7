package gen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/statedb"
)

// specFromFuzz decodes a fuzz payload into a ChaincodeSpec. Each
// 7-byte chunk of data declares one function: six action counts and a
// mutation byte that can blank or duplicate the function name, so the
// fuzzer explores both valid specs and every Validate failure mode.
func specFromFuzz(name string, keys int, data []byte) ChaincodeSpec {
	spec := ChaincodeSpec{Name: name, Keys: keys}
	for i := 0; i+7 <= len(data) && len(spec.Functions) < 8; i += 7 {
		c := data[i : i+7]
		f := FunctionSpec{
			Name:        fmt.Sprintf("fn%d", len(spec.Functions)),
			Reads:       int(c[0]) % 4,
			Inserts:     int(c[1]) % 4,
			Updates:     int(c[2]) % 4,
			Deletes:     int(c[3]) % 4,
			RangeReads:  int(c[4]) % 3,
			RichQueries: int(c[5]) % 3,
		}
		switch c[6] % 4 {
		case 1:
			f.Name = "" // unnamed function: Validate must reject
		case 2:
			if n := len(spec.Functions); n > 0 {
				f.Name = spec.Functions[n-1].Name // duplicate
			}
		}
		spec.Functions = append(spec.Functions, f)
	}
	return spec
}

// FuzzGenChaincode drives the chaincode generator with randomized
// specs: NewChaincode and Render must never panic, Render must be
// deterministic, and every chaincode that compiles must also render
// and survive an Init plus one Invoke of each function.
func FuzzGenChaincode(f *testing.F) {
	// Seed corpus: the canonical genChain shape, a rejected spec, a
	// rich-query-heavy one, and degenerate inputs. Mirrored in
	// testdata/fuzz/FuzzGenChaincode so CI replays them.
	f.Add("genChain", 100, []byte{1, 1, 1, 1, 1, 0, 0, 2, 0, 2, 0, 0, 2, 0})
	f.Add("bad", 0, []byte{1, 0, 0, 0, 0, 0, 0})
	f.Add("rich", 40, []byte{0, 0, 0, 0, 0, 2, 0})
	f.Add("dup", 10, []byte{1, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 2})
	f.Add("", 5, []byte{})
	f.Add("_", 5, []byte{1, 0, 0, 0, 0, 0, 0}) // blank identifier: Validate must reject
	f.Fuzz(func(t *testing.T, name string, keys int, data []byte) {
		if keys > 256 {
			keys %= 256 // bound Init cost; negatives stay to test Validate
		}
		spec := specFromFuzz(name, keys, data)

		cc, err := NewChaincode(spec)
		src1, rerr1 := Render(spec, true)
		src2, rerr2 := Render(spec, true)
		if src1 != src2 || (rerr1 == nil) != (rerr2 == nil) {
			t.Fatalf("Render is not deterministic for %+v", spec)
		}
		if (err == nil) != (rerr1 == nil) {
			t.Fatalf("NewChaincode err=%v but Render err=%v", err, rerr1)
		}
		if plain, perr := Render(spec, false); (perr == nil) != (rerr1 == nil) {
			t.Fatalf("rich/plain Render disagree: %v vs %v", rerr1, perr)
		} else if perr == nil && plain == "" {
			t.Fatal("valid spec rendered empty source")
		}
		if err != nil {
			return // invalid spec: rejection without panic is the contract
		}
		if !strings.Contains(src1, "func (c *Contract) Invoke") {
			t.Fatalf("rendered source lacks an Invoke method:\n%s", src1)
		}

		// The compiled chaincode must initialize and execute every
		// function without panicking.
		db := statedb.New(statedb.CouchDB)
		stub := chaincode.NewStub(db)
		if err := cc.Init(stub); err != nil {
			t.Fatalf("Init: %v", err)
		}
		for _, fn := range spec.Functions {
			args := fuzzArgs(fn, spec.Keys)
			stub := chaincode.NewStub(db)
			if err := cc.Invoke(stub, fn.Name, args); err != nil {
				t.Fatalf("%s(%v): %v", fn.Name, args, err)
			}
		}
		// Unknown functions and bad arity must error, not panic.
		if err := cc.Invoke(chaincode.NewStub(db), "no-such-fn", nil); err == nil {
			t.Fatal("unknown function accepted")
		}
		if first := spec.Functions[0]; first.Ops() > 0 {
			if err := cc.Invoke(chaincode.NewStub(db), first.Name, nil); err == nil {
				t.Fatal("bad arity accepted")
			}
		}
	})
}

// fuzzArgs builds a valid argument vector for one generated function.
func fuzzArgs(f FunctionSpec, keys int) []string {
	var args []string
	for i := 0; i < f.Reads; i++ {
		args = append(args, fmt.Sprint(i%keys))
	}
	for i := 0; i < f.Inserts; i++ {
		args = append(args, fmt.Sprintf("seq%d", i))
	}
	for i := 0; i < f.Updates; i++ {
		args = append(args, fmt.Sprint(i%keys))
	}
	for i := 0; i < f.Deletes; i++ {
		args = append(args, fmt.Sprint(i%keys))
	}
	for i := 0; i < f.RangeReads; i++ {
		args = append(args, fmt.Sprintf("%d:%d", i%keys, 2))
	}
	for i := 0; i < f.RichQueries; i++ {
		args = append(args, fmt.Sprint(i%97))
	}
	return args
}
