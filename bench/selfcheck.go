package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheckSeeds is how many seeds one set of the self-check runs per
// workload; the sets use the same seeds.
const selfCheckSeeds = 10

// runChild measures one (workload, seed) in a fresh process, the way
// the acceptance procedure does, and parses its result line.
func runChild(w workload, seed int64, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d reps failed", w.name, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// selfCheck measures every workload on ten seeds, twice, and judges
// the two sets as the acceptance procedure does: within a set, the
// distance between the quartiles of a metric's ten values, as a share
// of their median, must stay within the metric's bound (set-up time
// excepted); between the sets, the second median may not be worse than
// the first by more than the bound. It prints every comparison and
// reports whether all hold.
func selfCheck(ws []workload, seconds int) bool {
	ok := true
	fmt.Printf("%-17s %-17s %10s %10s %8s %8s %8s %6s\n",
		"workload", "metric", "median1", "median2", "spread1", "spread2", "shift", "bound")
	for _, w := range ws {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for seed := int64(1); seed <= selfCheckSeeds; seed++ {
				res, err := runChild(w, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
					return false
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, m := range endToEnd {
			var med, spread [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][m.name])
				med[s], spread[s] = q2, (q3-q1)/q2
			}
			shift := (med[1] - med[0]) / med[0] // every metric is better when lower
			verdict := ""
			if shift > m.bound || (m.name != "setup_s" && (spread[0] > m.bound || spread[1] > m.bound)) {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-17s %-17s %10.4f %10.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, m.name, med[0], med[1], 100*spread[0], 100*spread[1], 100*shift, 100*m.bound, verdict)
		}
	}
	return ok
}
