package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist maps an export the rule would flag, spelled as
// unusedExports reports it, to the reason it stays exported anyway.
var exportAllowlist = map[string]string{}

// TestInternalExportsUsed keeps internal/ free of dead and test-only
// exports: every exported top-level function, and every exported method on
// an exported type, declared in a non-test file under an internal/ directory
// must be referenced from a file outside its package directory, in any
// module of the repository (bench/ included). That file may be non-test code
// or another package's test, which is how shared fixtures such as
// datagen.FlightCovariates are used. A function called only inside its own
// package should be unexported, and one nothing calls should be deleted.
//
// The root package's functions returning Option are held to a stricter
// rule: each needs a reference from a non-test file outside the root
// package. An option only tests set is a setting no caller uses, and
// belongs in the root package's export_test.go.
func TestInternalExportsUsed(t *testing.T) {
	flagged, err := unusedExports(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	for _, name := range flagged {
		if exportAllowlist[name] == "" {
			violations = append(violations, name)
		}
	}
	if len(violations) > 0 {
		t.Errorf("exports with no caller outside their package (%d):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// TestInternalExportsUsedPlanted runs the rule over a planted tree whose
// violations are known: an unreferenced function and an unreferenced method
// are flagged, as is a function only its own package's test calls; a
// function only another package's test calls, one a command calls through
// an aliased import, and a method on an unexported type are not. Of the
// root package's options, one only another package's test sets and one only
// the root package itself sets are flagged; one a command sets, one
// declared in a test file and a root function returning something else are
// not.
func TestInternalExportsUsedPlanted(t *testing.T) {
	flagged, err := unusedExports(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.OwnTestOnly", "internal/a.T.Dead", "internal/a.Unused", "planted.WithRootOnly", "planted.WithTestOnly"}
	if !reflect.DeepEqual(flagged, want) {
		t.Errorf("planted tree: flagged %q, want %q", flagged, want)
	}
}

// goFile is one parsed Go file of the tree the export rule scans.
type goFile struct {
	dir  string // repo-relative package directory
	test bool
	ast  *ast.File
}

// unusedExports returns, sorted, the exported functions ("dir.Name") and
// exported methods on exported types ("dir.Type.Name") declared in non-test
// files under an internal/ directory of the tree at root that no file
// outside their package directory references, and the functions returning
// Option declared in non-test files of the root package ("pkg.Name") that
// no non-test file outside it references. Directories named testdata, or
// starting with "." or "_", are skipped below root.
//
// A function counts as referenced when a file selects it through an import
// of its package (pkg.Name), with import paths resolved against the go.mod
// files found in the tree. A method counts as referenced when any file
// outside its package selects that name on any value. That match is
// conservative: a dead method that shares its name with a live one elsewhere
// goes unflagged, but a used method is never flagged. Methods on unexported
// types are skipped, since they exist to satisfy interfaces.
func unusedExports(root string) ([]string, error) {
	modules := map[string]string{} // module path -> repo-relative dir
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case name == "go.mod":
			mod, err := modulePath(path)
			if err != nil {
				return err
			}
			modules[mod] = rel
		case strings.HasSuffix(name, ".go"):
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, goFile{dir: rel, test: strings.HasSuffix(name, "_test.go"), ast: f})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// resolve maps an import path to the repo-relative directory of the
	// longest module path it falls under; "" means outside the tree.
	resolve := func(imp string) string {
		best := ""
		for mod := range modules {
			if (imp == mod || strings.HasPrefix(imp, mod+"/")) && len(mod) > len(best) {
				best = mod
			}
		}
		if best == "" {
			return ""
		}
		return filepath.ToSlash(filepath.Join(modules[best], strings.TrimPrefix(imp, best)))
	}

	pkgName := map[string]string{} // dir -> package name of its non-test files
	for _, f := range files {
		if !f.test {
			pkgName[f.dir] = f.ast.Name.Name
		}
	}
	// funcs holds every "dir.Name" selected through an import from another
	// dir, true when a non-test file selects it.
	funcs := map[string]bool{}
	selectors := map[string]map[string]bool{} // selector name -> dirs of the files selecting it
	for _, f := range files {
		imports := map[string]string{} // local name -> dir
		for _, spec := range f.ast.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			dir := resolve(imp)
			if dir == "" {
				continue
			}
			local := pkgName[dir]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selectors[sel.Sel.Name] == nil {
				selectors[sel.Sel.Name] = map[string]bool{}
			}
			selectors[sel.Sel.Name][f.dir] = true
			if x, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok && dir != f.dir {
					key := dir + "." + sel.Sel.Name
					funcs[key] = funcs[key] || !f.test
				}
			}
			return true
		})
	}
	methodUsed := func(dir, name string) bool {
		for d := range selectors[name] {
			if d != dir {
				return true
			}
		}
		return false
	}

	var flagged []string
	for _, f := range files {
		if f.test {
			continue
		}
		if f.dir == "." {
			for _, decl := range f.ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.IsExported() && returnsOption(fn) && !funcs[f.dir+"."+fn.Name.Name] {
					flagged = append(flagged, f.ast.Name.Name+"."+fn.Name.Name)
				}
			}
			continue
		}
		if !underInternal(f.dir) {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				if _, ok := funcs[f.dir+"."+fn.Name.Name]; !ok {
					flagged = append(flagged, f.dir+"."+fn.Name.Name)
				}
				continue
			}
			recv := recvTypeName(fn.Recv)
			if ast.IsExported(recv) && !methodUsed(f.dir, fn.Name.Name) {
				flagged = append(flagged, f.dir+"."+recv+"."+fn.Name.Name)
			}
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

// returnsOption reports whether fn's one result is the package's Option.
func returnsOption(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) != 1 || len(res.List[0].Names) > 1 {
		return false
	}
	id, ok := res.List[0].Type.(*ast.Ident)
	return ok && id.Name == "Option"
}

// underInternal reports whether a repo-relative directory lies below a
// directory named internal.
func underInternal(dir string) bool {
	parts := strings.Split(dir, "/")
	for _, p := range parts[:len(parts)-1] {
		if p == "internal" {
			return true
		}
	}
	return false
}

// recvTypeName returns the base type name of a method receiver, or "" when
// it is not a plain named type.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
