package main

import (
	"strings"
	"testing"
)

func TestLastResult(t *testing.T) {
	out := "ehr-controlplane seed 1: 3 timed reps\n  us_per_simtx 94.7 us\n" +
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"bytes_per_simtx":{"value":7176.2,"unit":"B"}}}` + "\n"
	res, line, err := lastResult(out)
	if err != nil || !res.Correct || res.Failed != 0 || res.Metrics["bytes_per_simtx"].Value != 7176.2 {
		t.Errorf("lastResult = %+v, %v", res, err)
	}
	if !strings.HasPrefix(line, `{"correct"`) {
		t.Errorf("line = %q", line)
	}
	for _, bad := range []string{"", "panic: boom", `{"unrelated":1}`} {
		if _, _, err := lastResult(bad); err == nil {
			t.Errorf("lastResult(%q) accepted", bad)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4}); q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %g %g %g", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{1, 2}); q1 != 1.25 || med != 1.5 || q3 != 1.75 {
		t.Errorf("quartiles(1,2) = %g %g %g", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles(7) = %g %g %g", q1, med, q3)
	}
}

func TestSummarizeCountsPairsAndSpread(t *testing.T) {
	lower := metricDef{Name: "bytes_per_simtx", Unit: "B", Better: "lower"}
	// Change wins three pairs, ties one, loses one; medians 100 -> 50
	// against a parent quartile distance of 10.
	row := summarize("w", lower, []pair{{100, 50}, {95, 50}, {105, 40}, {100, 100}, {90, 95}})
	for _, want := range []string{"100.0000 (95.0000–100.0000)", "50.0000 (50.0000–95.0000)", "-50.0%", "3/1", "yes"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q lacks %q", row, want)
		}
	}
	// The same readings on a higher-is-better metric are a loss.
	higher := metricDef{Name: "cells_per_s", Unit: "1/s", Better: "higher"}
	row = summarize("w", higher, []pair{{100, 50}, {95, 50}, {105, 40}, {100, 100}, {90, 95}})
	if !strings.Contains(row, "1/3") || !strings.HasSuffix(row, "no") {
		t.Errorf("higher-is-better row %q, want 1/3 pairs and not beyond the spread", row)
	}
}
