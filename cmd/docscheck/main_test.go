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
