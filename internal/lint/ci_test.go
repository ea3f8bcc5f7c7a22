package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the repo-relative path of the CI definition whose go test
// commands the run-pattern rule checks.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIRunPatternsMatch requires every |-alternative of every
// `go test ... -run '...' <pkgs>` command in the CI workflow to match a
// Test, Fuzz or Example function of the packages that command lists. An
// alternative matching nothing is a test the step claims to run but never
// does — typically one renamed or deleted since the step was written.
func TestCIRunPatternsMatch(t *testing.T) {
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, ciWorkflow))
	if err != nil {
		t.Fatal(err)
	}
	misses, err := unmatchedRunPatterns(root, string(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range misses {
		t.Errorf("%s: %s", ciWorkflow, m)
	}
}

// TestCIRunPatternsMatchPlanted: a dead alternative in a continued command
// is flagged, while the live one beside it and the `^$` pattern of a
// bench-only command are not.
func TestCIRunPatternsMatchPlanted(t *testing.T) {
	planted := "        run: |\n" +
		"          go test -race -count 10 -run 'TestSharded|TestSnapshot' \\\n" +
		"            ./source/sharded/ ./internal/countcache/\n" +
		"          go test -run '^$' -bench . -benchtime 1x ./... \\\n" +
		"            | tee bench.json\n"
	misses, err := unmatchedRunPatterns(repoRoot(t), planted)
	if err != nil {
		t.Fatal(err)
	}
	if len(misses) != 1 || !strings.Contains(misses[0], `"TestSnapshot"`) {
		t.Errorf("planted workflow: flagged %q, want only TestSnapshot", misses)
	}
}

// goTestFlags lists the go test flags the CI workflow uses, mapped to
// whether they take a separate value argument.
var goTestFlags = map[string]bool{
	"-run": true, "-count": true, "-bench": true, "-benchtime": true,
	"-fuzz": true, "-fuzztime": true, "-timeout": true,
	"-race": false, "-v": false, "-short": false, "-benchmem": false, "-json": false,
}

// continuation matches a shell line continuation and the next line's indent.
var continuation = regexp.MustCompile(`\\\n\s*`)

// unmatchedRunPatterns returns one message per -run alternative in the
// workflow text that matches no test function of its command's packages,
// resolved against the tree at root. The pattern `^$`, which selects no
// test on purpose, is exempt.
func unmatchedRunPatterns(root, workflow string) ([]string, error) {
	var misses []string
	names := map[string][]string{} // package pattern -> test function names
	for _, line := range strings.Split(continuation.ReplaceAllString(workflow, " "), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		pattern, pkgs, err := parseGoTest(cmd)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", line, err)
		}
		if pattern == "" || pattern == "^$" {
			continue
		}
		var funcs []string
		for _, pkg := range pkgs {
			if _, ok := names[pkg]; !ok {
				if names[pkg], err = testFuncs(root, pkg); err != nil {
					return nil, err
				}
			}
			funcs = append(funcs, names[pkg]...)
		}
		for _, alt := range splitTopLevel(pattern, '|') {
			top := splitTopLevel(alt, '/')[0] // -run matches subtests level by level
			re, err := regexp.Compile(top)
			if err != nil {
				return nil, fmt.Errorf("-run alternative %q: %w", alt, err)
			}
			if !matchesAny(re, funcs) {
				misses = append(misses, fmt.Sprintf("-run alternative %q matches no test in %s", alt, strings.Join(pkgs, " ")))
			}
		}
	}
	return misses, nil
}

// parseGoTest reads the arguments of one go test command up to the first
// shell operator: its -run pattern ("" when it has none) and its package
// patterns (default ".").
func parseGoTest(cmd string) (pattern string, pkgs []string, err error) {
	args := shellFields(cmd)
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, value, inline := strings.Cut(a, "=")
		takesValue, known := goTestFlags[name]
		if !known {
			return "", nil, fmt.Errorf("go test flag %s unknown to the run-pattern rule", name)
		}
		if takesValue && !inline {
			if i++; i == len(args) {
				return "", nil, fmt.Errorf("flag %s lacks its value", name)
			}
			value = args[i]
		}
		if name == "-run" {
			pattern = value
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs, nil
}

// shellFields splits a command line into words, honoring single and double
// quotes, and stops at the first unquoted shell operator (| & ; < >).
func shellFields(s string) []string {
	var out []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case strings.ContainsRune("|&;<>", r):
			if inWord {
				out = append(out, word.String())
			}
			return out
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// splitTopLevel splits a regular expression at sep outside parentheses and
// brackets, the way go test splits -run into alternatives and levels.
func splitTopLevel(re string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testFuncs returns the Test, Fuzz and Example functions declared in the
// _test.go files of one package pattern: a directory relative to root, or
// one ending in "/..." for every package below it within the root module.
func testFuncs(root, pkg string) ([]string, error) {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Join(root, dir)
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			name := d.Name()
			if !recursive || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module: ./... stops there
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Name.Name == "TestMain" {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					funcs = append(funcs, fn.Name.Name)
				}
			}
		}
		return nil
	})
	return funcs, err
}

// matchesAny reports whether re matches any of names.
func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
