// Command docscheck is the docs-freshness gate run by CI. It fails
// when any Go package in the repository is missing a package doc
// comment ("// Package <name> ..." attached to the package clause in
// at least one file), so the documentation layer cannot silently rot
// as new packages are added; and it fails when the root package — the
// facade over internal/ — exports a name that neither examples/ nor a
// root _test.go file refers to, so a re-export cannot outlive its last
// user. It also fails when README.md or a docs/*.md file names, in
// backticks, a Go identifier or a repository path that the tree no
// longer has, so a deletion cannot leave the prose behind.
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
	"regexp"
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
	stale, names, err := staleDocNames(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d of %d backticked names in the docs name nothing in the tree:\n  %s\n",
			len(stale), names, strings.Join(stale, "\n  "))
		fmt.Fprintln(os.Stderr, "reword or delete them")
		os.Exit(1)
	}
	fmt.Printf("docscheck: all %d packages documented, all %d root exports referenced, all %d doc names resolved\n",
		checked, exported, names)
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
	modPath, err := modulePath(root)
	if err != nil {
		return nil, 0, err
	}

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

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	goName   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	repoPath = regexp.MustCompile(`^[\w.-]+/[\w./-]*$`)
)

// staleDocNames reports the backticked spans of README.md and
// docs/*.md, outside fenced blocks, that name nothing in the tree, as
// "file:line: `span`", and how many spans it checked. Two kinds are
// checked:
//   - a Go identifier whose last component is exported, alone or
//     qualified (`Config`, `fabric.Config`, `Report.String()`): that
//     component must be declared somewhere in the module, test files
//     included. Matching is by that name alone. A name qualified by a
//     package imported from outside the module (`json.Marshal`) is not
//     checked;
//   - a path whose first element exists at root (`internal/fabric`):
//     it must exist too.
func staleDocNames(root string) (stale []string, checked int, err error) {
	declared, external, err := declaredNames(root)
	if err != nil {
		return nil, 0, err
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, 0, err
	}
	for _, path := range append([]string{filepath.Join(root, "README.md")}, docs...) {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		rel, _ := filepath.Rel(root, path)
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				resolved, ok := true, false
				if name := strings.TrimSuffix(span, "()"); goName.MatchString(name) {
					first, _, _ := strings.Cut(name, ".")
					last := name[strings.LastIndex(name, ".")+1:]
					if ast.IsExported(last) && (first == name || !external[first]) {
						resolved, ok = declared[last], true
					}
				} else if repoPath.MatchString(span) {
					if dir, _, _ := strings.Cut(span, "/"); exists(filepath.Join(root, dir)) {
						resolved, ok = exists(filepath.Join(root, span)), true
					}
				}
				if ok {
					checked++
				}
				if !resolved {
					stale = append(stale, fmt.Sprintf("%s:%d: `%s`", rel, i+1, span))
				}
			}
		}
	}
	return stale, checked, nil
}

// declaredNames parses every Go file under root and returns each name
// it declares — package, type, function, method, constant, variable,
// struct field, interface method and parameter — and the local names
// of the packages it imports from outside the module.
func declaredNames(root string) (declared, external map[string]bool, err error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	declared, external = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared[f.Name.Name] = true
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				continue
			}
			name := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			external[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name.Name] = true
			case *ast.TypeSpec:
				declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return declared, external, err
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	fields := strings.Fields(string(gomod))
	if len(fields) < 2 || fields[0] != "module" {
		return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	return fields[1], nil
}
