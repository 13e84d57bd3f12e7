package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	diffGolden(t, name, got, string(want))
}

// diffGolden reports every line on which got and want, two renderings
// of golden file name, differ.
func diffGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
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
// experiment — header, row set, row order, every printed cell — in the
// smoke corpus (smokeOptions). It is the net under the harness: any
// change to which cells an experiment runs, in what order, with what
// config, or how a column is formatted moves a line here, while
// TestGoldenFullReports pins whole reports of the locked QuickOptions
// cells. Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenExperimentTables -update-golden
//
// and justify the diff in the commit.
func TestGoldenExperimentTables(t *testing.T) {
	var sb strings.Builder
	for _, e := range Experiments() {
		fmt.Fprintf(&sb, "== %s\n%s\n", e.ID, smokeCorpus(t, e.ID))
	}
	checkGolden(t, "golden_tables.txt", sb.String())
}
