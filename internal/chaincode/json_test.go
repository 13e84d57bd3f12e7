package chaincode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

// Strings json.Marshal treats specially, and plain ones. Both fuzz
// targets start from them: FuzzAppendJSONString as values,
// FuzzAppendJSONSet as keys.
var stringCorpus = []string{
	"", "actor07", "profile_042", "a b~!#$%'()*+,-./:;=?@[]^_`{|}",
	"<script>&", `"`, `\`, `say "hi"\now`, "\b\f\n\r\t", "\x00\x1f", "\x7f",
	"\u2028\u2029", "é", "日本語", "\U0001F600", "\ufffd",
	"\xff", "\xe2\x82", "a\xc0b", "\xed\xa0\x80",
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range stringCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal gives %s", s, got, want)
		}
		if got := AppendString([]byte("kept"), s); string(got) != "kept"+string(want) {
			t.Errorf("AppendString(%q) onto a prefix = %s", s, got)
		}
	})
}

// keySet builds a fuzz input's set: the parts of joined between 0x1e
// bytes, sorted in byte order and without repeats, and the map that
// json.Marshal is given for it, each key mapped to true.
func keySet(joined string, isNil bool) ([]string, map[string]bool) {
	if isNil {
		return nil, nil
	}
	keys, m := []string{}, map[string]bool{}
	if joined != "" {
		keys = strings.Split(joined, "\x1e")
		slices.Sort(keys)
		keys = slices.Compact(keys)
		for _, k := range keys {
			m[k] = true
		}
	}
	return keys, m
}

func FuzzAppendJSONSet(f *testing.F) {
	fifty := make([]string, 50)
	for i := range fifty {
		fifty[i] = fmt.Sprintf("actor%02d", (i*37)%50)
	}
	f.Add("", true)  // nil set
	f.Add("", false) // empty set
	f.Add("actor03", false)
	f.Add(strings.Join(fifty, "\x1e"), false)
	f.Add(strings.Join(stringCorpus, "\x1e"), false)
	// Key order is byte order. It is not UTF-16 order (U+FF5E sorts after
	// U+10000 there), and not the order of the runes a reader decodes
	// (0xc0 alone reads as U+FFFD, far above é, and sorts below it).
	f.Add("\uff5e\x1e\U00010000\x1ez\x1eé\x1e\xc0\x1e\xff\x1e\ufffd", false)
	f.Add("actor03\x1eactor03\x1e", false) // a repeat, and the empty key
	f.Fuzz(func(t *testing.T, joined string, isNil bool) {
		keys, m := keySet(joined, isNil)
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendSet(nil, keys); !bytes.Equal(got, want) {
			t.Errorf("AppendSet(%q) = %s, json.Marshal gives %s", keys, got, want)
		}
	})
}

func TestAppendIntAndBoolMatchMarshal(t *testing.T) {
	for _, n := range []int{0, 1, -1, 42, -40000, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		want, _ := json.Marshal(n)
		if got := AppendInt(nil, n); !bytes.Equal(got, want) {
			t.Errorf("AppendInt(%d) = %s, json.Marshal gives %s", n, got, want)
		}
	}
	for _, v := range []bool{true, false} {
		want, _ := json.Marshal(v)
		if got := AppendBool(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendBool(%v) = %s, json.Marshal gives %s", v, got, want)
		}
	}
}

// accessDoc has the shape of ehr.profile, the document the benchmark
// writes most.
type accessDoc struct {
	PatientID string
	Access    []string // sorted, distinct
	Updates   int
}

func (d accessDoc) AppendJSON(b []byte) []byte {
	b = AppendString(append(b, `{"patientId":`...), d.PatientID)
	b = AppendSet(append(b, `,"access":`...), d.Access)
	b = AppendInt(append(b, `,"updates":`...), d.Updates)
	return append(b, '}')
}

func tenActors(updates int) *accessDoc {
	d := &accessDoc{PatientID: "17", Access: []string{}, Updates: updates}
	for i := 0; i < 10; i++ {
		d.Access = append(d.Access, fmt.Sprintf("actor%02d", i*5))
	}
	return d
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// A write costs one object: the bytes that are kept. The buffer they
// are encoded into is reused, and the access set is written as it is
// held, already sorted.
func TestPutDocAllocatesOnlyTheValue(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops a quarter of what is Put")
	}
	s := NewStub(seeded(statedb.LevelDB))
	doc := tenActors(3)
	if err := PutDoc(s, "k1", doc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { PutDoc(s, "k1", doc) }); n > 1 {
		t.Errorf("PutDoc allocates %.0f objects per write, want at most 1", n)
	}
}

// The stored value is never the buffer it was encoded into — a later
// write, on this stub or another, leaves it alone — and carries none of
// the encoder's slack, which every state entry and block would retain.
func TestPutDocValuesDoNotAlias(t *testing.T) {
	first, other := NewStub(seeded(statedb.LevelDB)), NewStub(seeded(statedb.LevelDB))
	docs := []*accessDoc{tenActors(1), {PatientID: "<2>", Updates: -2}, tenActors(3)}
	for i, s := range []*Stub{first, first, other} {
		if err := PutDoc(s, fmt.Sprint("k", i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	writes := append(append([]ledger.KVWrite{}, first.RWSet().Writes...), other.RWSet().Writes...)
	for i, w := range writes {
		if want := docs[i].AppendJSON(nil); !bytes.Equal(w.Value, want) {
			t.Errorf("write %d holds %s after the later writes, want %s", i, w.Value, want)
		}
		if slack := cap(w.Value) - len(w.Value); slack >= 16 {
			t.Errorf("write %d retains %d spare bytes behind its %d", i, slack, len(w.Value))
		}
	}
}
