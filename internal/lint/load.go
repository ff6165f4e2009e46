package lint

// Package loading: `go list -export -deps -json`
// enumerates the target packages and compiles export data for every
// dependency (stdlib included), then the targets are parsed and
// type-checked in the dependency order go list already guarantees.
// Module-internal imports resolve to the packages checked here — so
// type identity is consistent program-wide — and everything else is
// imported from gc export data, which needs no network and no GOPATH.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Program is every package of one lint run, in dependency order
// (dependencies before dependents).
type Program struct {
	Fset     *token.FileSet
	Sizes    types.Sizes
	Packages []*PackageInfo
	// RootDir is the directory package patterns were resolved in
	// (the module root for `fplint ./...`). Analyzers that shell out
	// to the go tool (allocbudget) or resolve checked-in data files
	// (the allocbudget manifest) anchor here. Empty for fixture
	// programs.
	RootDir string

	byPath map[string]*PackageInfo
	// Memo lets whole-program analyzers cache work that is shared
	// across the per-package passes (e.g. the hotpath call-graph
	// closure). Keyed by analyzer name.
	Memo map[string]any
}

// Package returns the loaded package with the given import path, nil
// if it was not a target of the run.
func (p *Program) Package(path string) *PackageInfo { return p.byPath[path] }

// PackageInfo is one parsed, type-checked package.
type PackageInfo struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir for the given
// patterns and decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter imports packages from gc export data files, deferring
// to already-checked module packages first so type identity stays
// consistent across the program.
type exportImporter struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	checked map[string]*types.Package
	gc      types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{fset: fset, exports: exports, checked: map[string]*types.Package{}}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	ei.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := ei.checked[path]; ok {
		return pkg, nil
	}
	return ei.gc.ImportFrom(path, srcDir, 0)
}

// Load enumerates and type-checks the packages matching patterns,
// resolved relative to dir (typically the module root with pattern
// "./...").
func Load(dir string, patterns ...string) (*Program, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	rootDir := dir
	if abs, err := filepath.Abs(dir); err == nil {
		rootDir = abs
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		Sizes:   types.SizesFor("gc", runtime.GOARCH),
		RootDir: rootDir,
		byPath:  map[string]*PackageInfo{},
		Memo:    map[string]any{},
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := newExportImporter(prog.Fset, exports)
	// go list -deps emits dependencies before dependents; checking in
	// stream order therefore sees every module-internal import already
	// checked.
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		pi, err := checkPackage(prog.Fset, prog.Sizes, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.checked[p.ImportPath] = pi.Pkg
		prog.Packages = append(prog.Packages, pi)
		prog.byPath[p.ImportPath] = pi
	}
	return prog, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

func checkPackage(fset *token.FileSet, sizes types.Sizes, imp types.Importer, path, dir string, goFiles []string) (*PackageInfo, error) {
	var files []*ast.File
	for _, name := range goFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, Sizes: sizes}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &PackageInfo{ImportPath: path, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}

// --- fixture loading --------------------------------------------------

var (
	fixtureMu      sync.Mutex
	fixtureExports = map[string]string{}
	moduleRootOnce sync.Once
	moduleRootDir  string
	moduleRootErr  error
)

// moduleRoot locates the enclosing module's root directory (where
// fixture imports like fpcache/internal/snap resolve).
func moduleRoot() (string, error) {
	moduleRootOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			moduleRootErr = fmt.Errorf("lint: go env GOMOD: %w", err)
			return
		}
		gomod := strings.TrimSpace(string(out))
		if gomod == "" || gomod == os.DevNull {
			moduleRootErr = fmt.Errorf("lint: not inside a module")
			return
		}
		moduleRootDir = filepath.Dir(gomod)
	})
	return moduleRootDir, moduleRootErr
}

// fixturePathPrefix is the import-path namespace of multi-package
// fixtures: a fixture subdirectory `b/` type-checks as package path
// "fixture/b" and sibling packages import it by that path.
const fixturePathPrefix = "fixture/"

// LoadFixture parses and type-checks the fixture under dir (an
// analyzer's testdata fixture, outside the module's package list) and
// wraps it in a Program. The files directly in dir form one package,
// as before; subdirectories containing Go files form additional
// packages importable as "fixture/<subdir>", so whole-program
// analyses (the hotpath and workershare closures) can be exercised
// across package boundaries from a fixture. Export data for all other
// imports is resolved through the enclosing module, so fixtures may
// import the standard library and fpcache/internal packages.
func LoadFixture(dir string) (*Program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture dir: %w", err)
	}
	fset := token.NewFileSet()
	parseDir := func(d string) ([]*ast.File, error) {
		es, err := os.ReadDir(d)
		if err != nil {
			return nil, fmt.Errorf("lint: fixture dir: %w", err)
		}
		var files []*ast.File
		for _, e := range es {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			full := filepath.Join(d, e.Name())
			f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parsing fixture %s: %w", full, err)
			}
			files = append(files, f)
		}
		return files, nil
	}
	rootFiles, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	type subPkg struct {
		path  string
		dir   string
		files []*ast.File
	}
	var subs []*subPkg
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sd := filepath.Join(dir, e.Name())
		files, err := parseDir(sd)
		if err != nil {
			return nil, err
		}
		if len(files) > 0 {
			subs = append(subs, &subPkg{path: fixturePathPrefix + e.Name(), dir: sd, files: files})
		}
	}
	if len(rootFiles) == 0 && len(subs) == 0 {
		return nil, fmt.Errorf("lint: fixture dir %s has no Go files", dir)
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	// Resolve export data for every non-fixture import the fixture
	// names. Results accumulate process-wide so a test binary lists
	// each dependency set once.
	allFiles := append([]*ast.File(nil), rootFiles...)
	for _, s := range subs {
		allFiles = append(allFiles, s.files...)
	}
	var missing []string
	fixtureMu.Lock()
	for _, f := range allFiles {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if strings.HasPrefix(path, fixturePathPrefix) || path == "unsafe" {
				continue
			}
			if _, ok := fixtureExports[path]; !ok {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		listed, err := goList(root, missing)
		if err != nil {
			fixtureMu.Unlock()
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				fixtureExports[p.ImportPath] = p.Export
			}
		}
	}
	exports := make(map[string]string, len(fixtureExports))
	for k, v := range fixtureExports {
		exports[k] = v
	}
	fixtureMu.Unlock()

	sizes := types.SizesFor("gc", runtime.GOARCH)
	imp := newExportImporter(fset, exports)
	conf := types.Config{Importer: imp, Sizes: sizes}
	prog := &Program{
		Fset:   fset,
		Sizes:  sizes,
		byPath: map[string]*PackageInfo{},
		Memo:   map[string]any{},
	}
	check := func(path, pkgDir string, files []*ast.File) error {
		info := newInfo()
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking fixture %s: %w", pkgDir, err)
		}
		imp.checked[path] = pkg
		pi := &PackageInfo{ImportPath: path, Dir: pkgDir, Files: files, Pkg: pkg, Info: info}
		prog.Packages = append(prog.Packages, pi)
		prog.byPath[path] = pi
		return nil
	}
	// Fixture subpackages may import one another; iterate to a fixpoint
	// so declaration order in the directory does not dictate dependency
	// order.
	pending := subs
	for len(pending) > 0 {
		var next []*subPkg
		var lastErr error
		for _, s := range pending {
			if err := check(s.path, s.dir, s.files); err != nil {
				next = append(next, s)
				lastErr = err
			}
		}
		if len(next) == len(pending) {
			return nil, lastErr
		}
		pending = next
	}
	if len(rootFiles) > 0 {
		if err := check(rootFiles[0].Name.Name, dir, rootFiles); err != nil {
			return nil, err
		}
	}
	return prog, nil
}
