package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkGolden compares got against testdata/<name> line by line, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s drift line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// TestGoldenExperimentTables pins the rendered text of every registry
// experiment — header, row set, row order, every printed cell — under
// SmokeOptions. The per-experiment goldens beside it pin Result fields
// of five lab experiments at QuickOptions; this one is the net under
// the harness itself: any change to which cells an experiment runs, in
// what order, with what config, or how a column is formatted moves a
// line here. Fig4 and Fig5 ignore Options.Smoke and sweep 150 and 75
// cells (a third of them DV on the 32-peer cluster), so they are
// pinned at a 250 ms send window to keep the test inside tier-1's
// budget. Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenExperimentTables -update-golden
//
// and justify the diff in the commit.
func TestGoldenExperimentTables(t *testing.T) {
	var sb strings.Builder
	for _, e := range Experiments() {
		o := SmokeOptions()
		if e.ID == "fig4" || e.ID == "fig5" {
			o.Duration, o.Drain = 250*time.Millisecond, 3*time.Second
		}
		out, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s\n", e.ID, out)
	}
	checkGolden(t, "golden_tables.txt", sb.String())
}
