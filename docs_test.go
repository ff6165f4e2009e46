package fpcache

// Docs hygiene checks, run as part of the ordinary test suite and
// called out explicitly by the CI docs step: every internal package
// must carry a package comment, every Go code block in README.md must
// actually build against the module, every flag a README command line
// passes must exist, and DESIGN.md's experiment index must list exactly
// the registered experiments — documentation that bit-rots fails the
// build instead of misleading the next reader.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"fpcache/internal/experiments"
)

// TestInternalPackageComments walks every package under internal/ (and
// the root package) and fails unless some file carries a package
// comment — the one-paragraph contract godoc shows.
func TestInternalPackageComments(t *testing.T) {
	dirs := map[string]bool{".": true}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		// Analyzer fixture packages under testdata are inputs, not API.
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if path != "internal" {
			dirs[path] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package comment", name, dir)
			}
		}
	}
}

// goBlock matches fenced Go code blocks in markdown.
var goBlock = regexp.MustCompile("(?s)```go\n(.*?)```")

// TestREADMESnippetsBuild extracts every fenced Go block from
// README.md and builds it against this module, so quickstart code can
// never drift from the API. Blocks without a package clause are
// skipped (there are none today, but partial snippets stay
// representable).
func TestREADMESnippetsBuild(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	blocks := goBlock.FindAllStringSubmatch(string(src), -1)
	if len(blocks) == 0 {
		t.Fatal("README.md contains no Go code blocks; the quickstart should have at least one")
	}
	for i, m := range blocks {
		snippet := m[1]
		if !strings.Contains(snippet, "package ") {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(snippet), 0o644); err != nil {
			t.Fatal(err)
		}
		gomod := "module readmesnippet\n\ngo 1.24\n\nrequire fpcache v0.0.0\n\nreplace fpcache => " + repo + "\n"
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "./...")
		cmd.Dir = dir
		// Snippet builds must not touch the network or rewrite go.mod.
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("README snippet %d does not build:\n%s\n--- snippet ---\n%s", i+1, out, snippet)
		}
	}
}

// readmeCommand matches a README shell line that runs one of the
// module's commands, capturing the command name and its arguments.
var readmeCommand = regexp.MustCompile(`^go run \./cmd/([a-z]+)(.*)$`)

// flagDefiners maps the flag package's definers (on flag or a
// FlagSet) to the position of the flag-name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"String": 0, "Float64": 0, "Duration": 0, "Func": 0, "TextVar": 1,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1,
}

// registeredFlags returns the flag names a command's main.go
// registers: the string-literal name argument of every flag definer
// call.
func registeredFlags(t *testing.T, tool string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("cmd", tool, "main.go"), nil, 0)
	if err != nil {
		t.Fatalf("README runs cmd/%s: %v", tool, err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		at, ok := flagDefiners[sel.Sel.Name]
		if !ok || len(call.Args) <= at {
			return true
		}
		if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			names[strings.Trim(lit.Value, "`\"")] = true
		}
		return true
	})
	return names
}

// TestREADMEFlagsExist checks every README line that runs
// `go run ./cmd/<tool> …`: each -flag on it must be one that
// cmd/<tool>/main.go registers, so deleting a flag without updating
// the README fails here.
func TestREADMEFlagsExist(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		m := readmeCommand.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		tool, args := m[1], m[2]
		if c := strings.Index(args, "#"); c >= 0 {
			args = args[:c]
		}
		if flags[tool] == nil {
			flags[tool] = registeredFlags(t, tool)
		}
		for _, arg := range strings.Fields(args) {
			name := strings.TrimLeft(arg, "-")
			if name == arg || name == "" || !unicode.IsLetter(rune(name[0])) {
				continue // an operand, "-" for stdin, or a negative number
			}
			name, _, _ = strings.Cut(name, "=")
			if !flags[tool][name] {
				t.Errorf("README.md:%d: cmd/%s registers no flag -%s:\n\t%s", i+1, tool, name, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("README.md has no `go run ./cmd/<tool>` line with flags; the check matched nothing")
	}
}

// TestDesignExperimentIndex checks that the id column of DESIGN.md
// §4's experiment index names exactly the experiments the registry
// runs, in registry order, with none missing and none extra.
func TestDesignExperimentIndex(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## §4 Experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## §4 Experiment index\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var ids []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		id := strings.TrimSpace(cells[1])
		if id == "id" || strings.HasPrefix(id, "-") {
			continue // header and separator rows
		}
		ids = append(ids, id)
	}
	if want := experiments.Names(); !slices.Equal(ids, want) {
		t.Errorf("DESIGN.md §4 lists %v,\nthe registry runs %v", ids, want)
	}
}
