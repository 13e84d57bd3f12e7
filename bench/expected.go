package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedFile holds the fidelity pins. Paths are relative to the
// benchmark's directory, which is the working directory under
// "go run -C bench" and under "go test".
const expectedFile = "expected.json"

// pinnedSeeds are the seeds whose simulated results are pinned; other
// seeds only require the reps of one run to agree with each other.
var pinnedSeeds = []int64{1, 2}

// pin is what a (workload, seed) run must reproduce exactly.
type pin struct {
	Digest string `json:"sim_digest"`
	Simtx  int    `json:"simtx"`
	Events uint64 `json:"events"` // 0 for a sweep: its engines are not reachable
}

func pinOf(r rep) pin { return pin{Digest: r.digest, Simtx: r.simtx, Events: r.events} }

// expected maps workload name, then decimal seed, to the pin.
type expected map[string]map[string]pin

func loadExpected() (expected, error) {
	raw, err := os.ReadFile(expectedFile)
	if err != nil {
		return nil, fmt.Errorf("reading the fidelity pins (run from the bench directory): %w", err)
	}
	var e expected
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	return e, nil
}

// checker returns the check every rep of one run must pass: equality
// with the committed pin when the seed has one, and with the run's
// first rep otherwise.
func (e expected) checker(name string, seed int64) func(rep) error {
	want, pinned := e[name][strconv.FormatInt(seed, 10)]
	return func(r rep) error {
		got := pinOf(r)
		if !pinned {
			want, pinned = got, true
			return nil
		}
		if got != want {
			return fmt.Errorf("simulated results changed: got %+v, want %+v", got, want)
		}
		return nil
	}
}

// updateExpected re-pins the given workloads from one rep per pinned
// seed, keeping the pins of workloads it was not asked about.
func updateExpected(ws []workload) error {
	e, err := loadExpected()
	if err != nil {
		e = expected{}
	}
	for _, w := range ws {
		e[w.name] = map[string]pin{}
		for _, seed := range pinnedSeeds {
			r, err := w.runRep(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			e[w.name][strconv.FormatInt(seed, 10)] = pinOf(r)
			fmt.Printf("%s seed %d: %+v\n", w.name, seed, pinOf(r))
		}
	}
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(raw, '\n'), 0o644)
}
