package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// retryExperimentIDs pulls every retry/coordination experiment — plus
// the scale sweep, which exercises the cohort and multi-channel
// machinery, and the faults sweep, which exercises the lifecycle and
// fault-injection machinery — out of the registry, so a new retry-*
// experiment is swept automatically: the matrix below is
// registry-driven, not a copy-pasted test per experiment id.
func retryExperimentIDs(t *testing.T) []string {
	t.Helper()
	var ids []string
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "retry-") || e.ID == "scale" || e.ID == "faults" {
			ids = append(ids, e.ID)
		}
	}
	for _, want := range []string{"retry-policies", "retry-cotune", "retry-coordination", "scale", "faults"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("registry lost experiment %q", want)
		}
	}
	return ids
}

// TestExperimentDeterminismMatrix renders every retry/coordination
// experiment's smoke grid at Parallelism 1 and diffs it against the
// smoke corpus, rendered at Parallelism 8: the tables must be
// byte-for-byte identical at any worker count, resubmission rng,
// budget gating, orderer hints and gossip rounds included. One
// registry-driven sweep replaces the per-experiment determinism tests.
func TestExperimentDeterminismMatrix(t *testing.T) {
	for _, id := range retryExperimentIDs(t) {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := e.Run(smokeOptions(id, 1))
			if err != nil {
				t.Fatal(err)
			}
			if par := smokeCorpus(t, id); seq != par {
				t.Errorf("%s differs between -parallel 1 and 8:\n--- serial\n%s\n--- parallel\n%s",
					id, seq, par)
			}
			// The diff only proves determinism if the grid did real
			// work: every report must hold data rows, and at least one
			// cell must actually have resubmitted (amplification > 1) —
			// an inert grid would be identical at any parallelism too.
			if rows := len(strings.Split(strings.TrimSpace(seq), "\n")); rows < 3 {
				t.Errorf("%s smoke grid rendered no data rows:\n%s", id, seq)
			}
			if !tableHasAmplification(t, seq) {
				t.Errorf("%s: no cell of the smoke grid amplified submissions:\n%s", id, seq)
			}
		})
	}
}

// tableHasAmplification parses the fixed-width table's "amp" column
// and reports whether any row exceeds 1 (retries actually engaged).
func tableHasAmplification(t *testing.T, table string) bool {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	cols := regexp.MustCompile(`\s{2,}`).Split(lines[0], -1)
	ampCol := -1
	for i, c := range cols {
		if c == "amp" {
			ampCol = i
			break
		}
	}
	if ampCol < 0 {
		t.Fatalf("table has no amp column:\n%s", table)
	}
	for _, line := range lines[2:] { // skip header + rule
		fields := regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1)
		if ampCol >= len(fields) {
			continue
		}
		amp, err := strconv.ParseFloat(fields[ampCol], 64)
		if err != nil {
			t.Fatalf("unparsable amp %q in row %q", fields[ampCol], line)
		}
		if amp > 1 {
			return true
		}
	}
	return false
}
