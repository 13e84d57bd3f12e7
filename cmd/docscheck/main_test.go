package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnusedFacade builds a module whose root package exports five
// names: one an example selects from its aliased import, one a root
// test names bare, one only another package's selector spells, one
// nothing mentions, and a method, which is not a package-level name.
func TestUnusedFacade(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod": "module demo\n\ngo 1.21\n",
		"facade.go": `// Package facade is the root.
package facade

type ByExample struct{}

func (ByExample) Method() {}

func ByTest() {}

const OnlyElsewhere, Unused = 1, 2

var unexported int
`,
		"facade_test.go": `package facade

import "demo/internal/other"

var _ = other.OnlyElsewhere

func init() { ByTest() }
`,
		"examples/one/main.go": `// Command one is an example.
package main

import lab "demo"

var _ lab.ByExample
`,
		"examples/two/main.go": `// Command two does not import the root.
package main

import "demo/internal/other"

var _ = other.Unused
`,
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, exported, err := unusedFacade(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"OnlyElsewhere", "Unused"}; !reflect.DeepEqual(unused, want) || exported != 4 {
		t.Errorf("unused = %v of %d, want %v of 4", unused, exported, want)
	}
}

// TestStaleDocNames builds a module whose docs name one declared
// identifier, one deleted one and one deleted package path; a standard
// library name, a lower-case name and a fenced block are not checked.
func TestStaleDocNames(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod": "module demo\n\ngo 1.21\n",
		"internal/kept/kept.go": `// Package kept is declared.
package kept

import "encoding/json"

type Good struct{ Field int }

var _ = json.Marshal
`,
		"README.md": "Run `kept.Good` and `json.Marshal` on `local.value`.\n\n" +
			"```\n`Fenced`\n```\n",
		"docs/guide.md": "See `Good.Field`, not `kept.Gone`, in `internal/kept`.\n" +
			"`internal/gone` went with it.\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale, checked, err := staleDocNames(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"docs/guide.md:1: `kept.Gone`", "docs/guide.md:2: `internal/gone`"}
	if !reflect.DeepEqual(stale, want) || checked != 5 {
		t.Errorf("stale = %v of %d, want %v of 5", stale, checked, want)
	}
}
