// Command docscheck is the docs-freshness gate run by CI. It fails
// when any Go package in the repository is missing a package doc
// comment ("// Package <name> ..." attached to the package clause in
// at least one file), so the documentation layer cannot silently rot
// as new packages are added; and it fails when the root package — the
// facade over internal/ — exports a name that neither examples/ nor a
// root _test.go file refers to, so a re-export cannot outlive its last
// user.
//
// Usage:
//
//	go run ./cmd/docscheck [root]
//
// root defaults to ".". Test-only packages (only _test.go files) and
// testdata/vendored trees are skipped; every other package —
// internal/*, cmd/*, examples/* and the module root — must carry a
// doc comment.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	missing, checked, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d of %d packages missing a package doc comment:\n",
			len(missing), checked)
		for _, dir := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
		fmt.Fprintln(os.Stderr, `add "// Package <name> ..." above the package clause (or a doc.go)`)
		os.Exit(1)
	}
	unused, exported, err := unusedFacade(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(unused) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d of %d names exported by the root package are referenced from neither examples/ nor a root test:\n  %s\n",
			len(unused), exported, strings.Join(unused, "\n  "))
		fmt.Fprintln(os.Stderr, "delete them from the facade (callers inside the module import internal/ directly)")
		os.Exit(1)
	}
	fmt.Printf("docscheck: all %d packages documented, all %d root exports referenced\n", checked, exported)
}

// check walks every directory under root that contains non-test Go
// files and reports the ones whose package lacks a doc comment.
func check(root string) (missing []string, checked int, err error) {
	dirs := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	var sorted []string
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)

	for _, dir := range sorted {
		documented, found, err := dirDocumented(dir)
		if err != nil {
			return nil, 0, err
		}
		if !found {
			continue
		}
		checked++
		if !documented {
			missing = append(missing, dir)
		}
	}
	return missing, checked, nil
}

// dirDocumented parses the package clause (and its comments) of every
// non-test Go file in dir and reports whether any carries a package
// doc comment. found is false when the directory holds no non-test Go
// files.
func dirDocumented(dir string) (documented, found bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, false, fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
		}
		found = true
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
	}
	return false, found, nil
}

// unusedFacade reports the names the package in root exports at top
// level that no file under root/examples and no _test.go file in root
// refers to, and how many it exports in all. A file of the root package
// itself refers to a name by the bare identifier; any other file by a
// selector on its import of the module path. Matching is by name, not
// by type-checked object.
func unusedFacade(root string) (unused []string, exported int, err error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, 0, err
	}
	fields := strings.Fields(string(gomod))
	if len(fields) < 2 || fields[0] != "module" {
		return nil, 0, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	modPath := fields[1]

	fset := token.NewFileSet()
	rootFiles, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return nil, 0, err
	}
	facade := map[string]bool{} // exported name -> referenced
	pkgName := ""
	var users []string
	for _, path := range rootFiles {
		if strings.HasSuffix(path, "_test.go") {
			users = append(users, path)
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		pkgName = f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					facade[d.Name.Name] = false
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							facade[spec.Name.Name] = false
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								facade[n.Name] = false
							}
						}
					}
				}
			}
		}
	}
	err = filepath.WalkDir(filepath.Join(root, "examples"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			users = append(users, path)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	mark := func(name string) {
		if _, ok := facade[name]; ok {
			facade[name] = true
		}
	}
	for _, path := range users {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		inPackage := filepath.Dir(path) == filepath.Clean(root) && f.Name.Name == pkgName
		qualifier := "" // what this file selects facade names from, if it imports them
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == modPath {
				qualifier = pkgName
				if imp.Name != nil {
					qualifier = imp.Name.Name
				}
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == qualifier {
					mark(n.Sel.Name)
				}
				// Sel names a member of X, never a name of the
				// file's own package.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if inPackage {
					mark(n.Name)
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	for name, used := range facade {
		if !used {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused, len(facade), nil
}
