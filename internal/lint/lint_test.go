// Package lint holds the repository's self-enforced checks, run as ordinary
// tests (and by the CI docs job). There are eight rules, all built on the
// standard library (go/ast, go/format) so they need no external tooling:
//   - the exported-comment rule over every public package (the revive
//     `exported` rule);
//   - the engine's single count path;
//   - the storage layers' single count form;
//   - hypdbd's single request pipeline;
//   - the api's single report schema;
//   - every internal export has a caller outside its package;
//   - a dead-link check over the markdown documentation set;
//   - a gofmt check over the documentation's Go examples.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// publicPackages are the package directories (repo-relative) whose exported
// API must be fully documented.
var publicPackages = []string{".", "api", "source", "source/mem", "source/remote", "source/sharded", "source/sqldb"}

// repoRoot locates the repository root from this file's path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller information")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestExportedDocComments enforces the `exported` documentation rule over
// the public packages: every package has a package comment, and every
// exported top-level identifier has a doc comment that starts with (or
// early mentions) the identifier. Grouped const/var specs may share the
// group's doc comment.
func TestExportedDocComments(t *testing.T) {
	root := repoRoot(t)
	var violations []string
	for _, dir := range publicPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					hasPkgDoc = true
				}
			}
			if !hasPkgDoc {
				violations = append(violations, dir+": package "+pkg.Name+" has no package comment")
			}
			for path, f := range pkg.Files {
				rel, _ := filepath.Rel(root, path)
				for _, d := range f.Decls {
					violations = append(violations, checkDecl(fset, rel, d)...)
				}
			}
		}
	}
	if len(violations) > 0 {
		t.Errorf("exported identifiers missing doc comments (%d):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// checkDecl returns the exported-comment violations of one top-level
// declaration.
func checkDecl(fset *token.FileSet, file string, decl ast.Decl) []string {
	var out []string
	bad := func(pos token.Pos, name, why string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d %s: %s", file, p.Line, name, why))
	}
	named := func(doc *ast.CommentGroup, name string) bool {
		text := strings.TrimSpace(doc.Text())
		// The standard rule: the comment starts with the identifier (an
		// article prefix and the deprecation marker are conventional).
		for _, prefix := range []string{name, "A " + name, "An " + name, "The " + name, "Deprecated:"} {
			if strings.HasPrefix(text, prefix) {
				return true
			}
		}
		return false
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return nil
		}
		if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
			bad(d.Pos(), d.Name.Name, "exported function/method has no doc comment")
		} else if !named(d.Doc, d.Name.Name) {
			bad(d.Pos(), d.Name.Name, "doc comment should start with the identifier")
		}
	case *ast.GenDecl:
		groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				doc := s.Doc
				if doc == nil && len(d.Specs) == 1 {
					doc = d.Doc
				}
				if doc == nil || strings.TrimSpace(doc.Text()) == "" {
					bad(s.Pos(), s.Name.Name, "exported type has no doc comment")
				} else if !named(doc, s.Name.Name) {
					bad(s.Pos(), s.Name.Name, "doc comment should start with the identifier")
				}
			case *ast.ValueSpec:
				specDoc := (s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != "") ||
					(s.Comment != nil && strings.TrimSpace(s.Comment.Text()) != "")
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					// A const/var is documented by its own comment or by
					// its group's doc comment.
					if !specDoc && !groupDoc {
						bad(n.Pos(), n.Name, "exported value has neither its own nor a group doc comment")
					}
				}
			}
		}
	}
	return out
}

// enginePackages are the analysis packages (repo-relative) that must read
// counts only through source.Tabulate.
var enginePackages = []string{"internal/core", "internal/independence", "internal/markov", "internal/cdd", "internal/query"}

// TestEngineSingleCountPath keeps the engine on one count path: its
// non-test files may not call Counts or DenseCounts on a relation, call
// source.Dense, or touch a view's dense Cells array. Each of those is a
// place where a consumer would decide dense versus sparse for itself;
// source.Tabulate and the dataset.DenseCounts accessors make that decision
// once for everyone.
func TestEngineSingleCountPath(t *testing.T) {
	root := repoRoot(t)
	var violations []string
	for _, dir := range enginePackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				rel, _ := filepath.Rel(root, path)
				bad := func(sel *ast.SelectorExpr) {
					p := fset.Position(sel.Pos())
					violations = append(violations, fmt.Sprintf("%s:%d uses .%s", rel, p.Line, sel.Sel.Name))
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						pkgIdent, _ := sel.X.(*ast.Ident)
						if sel.Sel.Name == "Counts" || sel.Sel.Name == "DenseCounts" ||
							sel.Sel.Name == "Dense" && pkgIdent != nil && pkgIdent.Name == "source" {
							bad(sel)
						}
					case *ast.SelectorExpr:
						if n.Sel.Name == "Cells" {
							bad(n)
						}
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		t.Errorf("engine code bypasses source.Tabulate (%d):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}

// countFormStorage are the storage files below the engine (repo-relative; a
// directory means its non-test files) that hold counts only in the
// dataset.DenseCounts form.
var countFormStorage = []string{
	"internal/countcache", "source/sqldb",
	"source/sharded", "source/remote", "internal/server/server.go",
	"source/mem", "internal/memsql",
}

// TestStorageSingleCountForm keeps the map-keyed count form out of the
// storage layers below the engine. Outside methods named Counts, which
// return the map the source.Relation contract asks for, their non-test files
// may not call ProjectKeys, a view's Map or a relation's Counts, nor spell a
// map[source.Key]int or map[dataset.GroupKey]int: each of those is a second,
// map-keyed copy of a count the dense form already holds. They read counts
// through source.Dense or source.TabulateWhere instead.
func TestStorageSingleCountForm(t *testing.T) {
	root := repoRoot(t)
	isKey := func(e ast.Expr) bool {
		switch k := e.(type) {
		case *ast.Ident:
			return k.Name == "Key" || k.Name == "GroupKey"
		case *ast.SelectorExpr:
			return k.Sel.Name == "Key" || k.Sel.Name == "GroupKey"
		}
		return false
	}
	var violations []string
	for _, path := range countFormStorage {
		files := []string{filepath.Join(root, path)}
		if !strings.HasSuffix(path, ".go") {
			all, err := filepath.Glob(filepath.Join(root, path, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			files = files[:0]
			for _, f := range all {
				if !strings.HasSuffix(f, "_test.go") {
					files = append(files, f)
				}
			}
		}
		for _, file := range files {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, file)
			bad := func(n ast.Node, what string) {
				violations = append(violations, fmt.Sprintf("%s:%d %s", rel, fset.Position(n.Pos()).Line, what))
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "Counts" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if ok && (sel.Sel.Name == "ProjectKeys" || sel.Sel.Name == "Counts" ||
							sel.Sel.Name == "Map" && len(n.Args) == 0) {
							bad(n, "calls ."+sel.Sel.Name)
						}
					case *ast.MapType:
						if v, ok := n.Value.(*ast.Ident); ok && v.Name == "int" && isKey(n.Key) {
							bad(n, "spells a map-keyed count")
						}
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		t.Errorf("storage code keeps map-keyed counts outside Counts (%d):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}

// pipelineOnly are the internal/server helpers that write responses, read
// bodies, derive deadlines or take execution slots: the request pipeline's
// own steps.
var pipelineOnly = map[string]bool{
	"writeError": true, "writeJSON": true, "decodeBody": true, "requestContext": true, "acquire": true,
}

// TestServerSinglePipeline keeps hypdbd on one request pipeline: outside
// internal/server/pipeline.go and the instrument middleware, its non-test
// files may not call the pipelineOnly helpers. A handler returns its status,
// body and typed error instead, and asks for slots through call.admit.
func TestServerSinglePipeline(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "server")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "pipeline.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			rel, _ := filepath.Rel(root, path)
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "instrument" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pipelineOnly[sel.Sel.Name] {
							violations = append(violations, fmt.Sprintf("%s:%d calls .%s",
								rel, fset.Position(call.Pos()).Line, sel.Sel.Name))
						}
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		t.Errorf("server code bypasses the request pipeline (%d):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}

// exportedRecv reports whether a method receiver's base type is exported
// (or is not a plain named type).
func exportedRecv(recv *ast.FieldList) bool {
	name := recvTypeName(recv)
	return name == "" || ast.IsExported(name)
}

// apiEnvelopeTypes are the only api types a report envelope may name: the
// wire forms of the engine's durations and CD result.
var apiEnvelopeTypes = map[string]bool{"Timing": true, "CDSummary": true}

// TestAPISingleReportSchema keeps one report schema from the engine to the
// wire: every field of api.Report and api.AuditReport is a builtin, a
// hypdb type, api.Timing or api.CDSummary (or a slice, map or pointer of
// those). A nested api copy of an engine type would be a second schema to
// keep in step with the first.
func TestAPISingleReportSchema(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, "api"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var allowed func(ast.Expr) bool
	allowed = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			_, builtin := types.Universe.Lookup(e.Name).(*types.TypeName)
			return builtin || apiEnvelopeTypes[e.Name]
		case *ast.SelectorExpr:
			pkg, ok := e.X.(*ast.Ident)
			return ok && pkg.Name == "hypdb"
		case *ast.StarExpr:
			return allowed(e.X)
		case *ast.ArrayType:
			return e.Len == nil && allowed(e.Elt)
		case *ast.MapType:
			return allowed(e.Key) && allowed(e.Value)
		}
		return false
	}
	found := map[string]bool{}
	var violations []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok || (spec.Name.Name != "Report" && spec.Name.Name != "AuditReport") {
					return true
				}
				found[spec.Name.Name] = true
				st, ok := spec.Type.(*ast.StructType)
				if !ok {
					violations = append(violations, "api."+spec.Name.Name+" is not a struct")
					return false
				}
				for _, field := range st.Fields.List {
					if !allowed(field.Type) {
						p := fset.Position(field.Pos())
						violations = append(violations, fmt.Sprintf("%s:%d api.%s field of type %s",
							filepath.Base(p.Filename), p.Line, spec.Name.Name, types.ExprString(field.Type)))
					}
				}
				return false
			})
		}
	}
	if !found["Report"] || !found["AuditReport"] {
		t.Fatalf("api.Report or api.AuditReport not found: %v", found)
	}
	if len(violations) > 0 {
		t.Errorf("report envelopes name types outside the engine's schema (%d):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}
