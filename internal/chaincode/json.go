package chaincode

import (
	"encoding/json"
	"strconv"
)

// The four helpers a Document's AppendJSON is written from. Each appends
// to b exactly the bytes json.Marshal produces for its argument (for
// AppendSet, for the map its keys stand for); json_test.go checks that
// against json.Marshal itself, and the tests of the chaincode packages
// check every document type built from them.

// AppendString appends s as a JSON string. A string made only of
// printable ASCII that json.Marshal never escapes — every key, id and
// name the studies generate — is copied between two quotes; any other
// string is json.Marshal's to encode, so its escape table (HTML-safe
// escapes, control characters, U+2028/U+2029, invalid UTF-8) exists in
// one place and these bytes follow the toolchain's, whichever it is.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, err := json.Marshal(s)
			if err != nil {
				panic(err) // json.Marshal cannot fail on a string
			}
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendInt appends n as a JSON number.
func AppendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// AppendBool appends v as true or false.
func AppendBool(b []byte, v bool) []byte { return strconv.AppendBool(b, v) }

// AppendSet appends keys, which must be sorted in byte order and
// distinct, as a JSON object that maps each to true: null for a nil
// slice, {} for an empty one. Those are the bytes json.Marshal writes
// for the map[string]bool holding the same keys, whose keys it sorts in
// byte order too.
func AppendSet(b []byte, keys []string) []byte {
	if keys == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ":true"...)
	}
	return append(b, '}')
}
