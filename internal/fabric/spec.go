package fabric

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The CLI spec grammar. Every -flag spec is a list of colon-separated
// positional fields, each a float, an int or a Go duration; specs for
// optional subsystems also accept the toggles off|on|default in place
// of the fields. Non-finite floats are rejected here, once, so no
// parser can hand NaN or ±Inf to a Validate that compares with < and >.

// specField is one positional field: its name in error messages, the
// typed target it parses into (*float64, *int or *time.Duration), and
// whether it may be left off the end of the spec.
type specField struct {
	name     string
	into     any
	optional bool
}

func req(name string, into any) specField { return specField{name, into, false} }
func opt(name string, into any) specField { return specField{name, into, true} }

// parseValue parses s into the typed target and wraps any error with
// what the value is: "fabric: gossip period "x": ...".
func parseValue(what, s string, into any) (err error) {
	switch p := into.(type) {
	case *float64:
		if *p, err = strconv.ParseFloat(s, 64); err == nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			err = errors.New("must be a finite number")
		}
	case *int:
		*p, err = strconv.Atoi(s)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	default:
		panic(fmt.Sprintf("fabric: spec field %s has unsupported target %T", what, into))
	}
	if err != nil {
		return fmt.Errorf("fabric: %s %q: %w", what, s, err)
	}
	return nil
}

// parseFields parses parts into fields positionally. Trailing optional
// fields may be absent; anything else is a usage error naming the spec
// and its grammar.
func parseFields(what, usage string, parts []string, fields ...specField) error {
	required := 0
	for _, f := range fields {
		if !f.optional {
			required++
		}
	}
	if len(parts) < required || len(parts) > len(fields) {
		return fmt.Errorf("fabric: %s %q: want %s", what, strings.Join(parts, ":"), usage)
	}
	for i, part := range parts {
		if err := parseValue(what+" "+fields[i].name, part, fields[i].into); err != nil {
			return err
		}
	}
	return nil
}

// parseToggled parses the spec of an optional subsystem: "" and "off"
// disable it, "on" and "default" enable it with every field left at its
// zero value (the documented defaults), and anything else must be the
// colon-separated fields, which a subsystem with none has not. on is
// meaningful only when err is nil.
func parseToggled(what, usage, s string, fields ...specField) (on bool, err error) {
	switch strings.ToLower(s) {
	case "", "off":
		return false, nil
	case "on", "default":
		return true, nil
	}
	if len(fields) == 0 {
		return false, fmt.Errorf("fabric: %s %q: want off or on", what, s)
	}
	return true, parseFields(what, "off, on or "+usage, strings.Split(s, ":"), fields...)
}

// inRange reports whether x is a number in [lo, hi]; NaN is in no
// range.
func inRange(x, lo, hi float64) bool { return x >= lo && x <= hi }

// finiteNonNeg reports whether x is a finite number >= 0.
func finiteNonNeg(x float64) bool { return inRange(x, 0, math.MaxFloat64) }
