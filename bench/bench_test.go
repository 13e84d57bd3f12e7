package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// shortened returns the workloads at five virtual seconds: the same
// code paths in a fraction of the time. The pins do not apply to them.
func shortened() []workload {
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		ws[i].duration = 5 * time.Second
	}
	return ws
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkSchema(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%d of %d attempts failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		case !metricName.MatchString(name):
			t.Errorf("metric name %q is outside the allowed alphabet", name)
		}
	}
}

// TestEndToEnd runs every workload's end-to-end measurement: all six
// metrics come out positive, and the reps of one run (a warm-up and
// three timed) agree on the simulated results.
func TestEndToEnd(t *testing.T) {
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	for _, w := range shortened() {
		res := measure(w, 3, 0, expected{})
		checkSchema(t, res, want)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never read 0", w.name, name, m.Value)
			}
		}
	}
}

// TestTracedRun runs every workload's traced measurement, which fails
// an attempt when tracing changes a digest (the wrappers must be
// inert), when a chain with kept payloads does not verify, or when the
// Peer.DeliverBlock replay validates a transaction differently from
// the run it was captured from.
func TestTracedRun(t *testing.T) {
	outDir = t.TempDir()
	want := map[string]string{}
	for _, m := range perLayer {
		want[m.name] = m.unit
	}
	for _, w := range shortened() {
		res := traced(w, 3, expected{})
		checkSchema(t, res, want)
		if res.Metrics["trace.spans"].Value == 0 || res.Metrics["fabric.deliver_block.ns_per_tx"].Value == 0 {
			t.Errorf("%s: the traced run recorded no spans or replayed no blocks", w.name)
		}
	}
}

// TestPinMismatchFails checks that a rep whose simulated results
// differ from the pin is reported, for pinned and unpinned seeds.
func TestPinMismatchFails(t *testing.T) {
	pins := expected{"w": {"1": pin{Digest: "aa", Simtx: 10, Events: 100}}}
	good := rep{digest: "aa", simtx: 10, events: 100}
	bad := rep{digest: "bb", simtx: 10, events: 100}
	pinned := pins.checker("w", 1)
	if err := pinned(good); err != nil {
		t.Errorf("matching rep rejected: %v", err)
	}
	if err := pinned(bad); err == nil {
		t.Error("rep that differs from the pin accepted")
	}
	unpinned := pins.checker("w", 7)
	if err := unpinned(bad); err != nil {
		t.Errorf("first rep of an unpinned seed rejected: %v", err)
	}
	if err := unpinned(good); err == nil {
		t.Error("rep that differs from the run's first rep accepted")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes this program:
// same workloads and reasons, same metrics, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, entry{Name: m.name, Unit: m.unit, Better: "lower", Bound: m.bound})
	}
	for _, m := range perLayer {
		layers = append(layers, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", file.Workloads, ws}, {"end_to_end", file.EndToEnd, e2e}, {"per_layer", file.PerLayer, layers}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
}
