// Package snapmeta statically enforces the snapshot subsystem's
// versioning discipline in every package that serializes warm state
// through the snap codec:
//
//   - a type exposing Snapshot(io.Writer) error must implement
//     Restore(io.Reader) error in the same package, and both must
//     read/write a version tag (directly or through a same-package
//     helper such as snap.WriteEnvelope/ReadEnvelope wrappers);
//   - the package must pin a fingerprint of its state-carrier structs
//     with a //fplint:snapfields 0x%08x directive (conventionally on
//     the snapshot version const). Any field added to, removed from,
//     or retyped in a carrier changes the fingerprint and fails the
//     build until the directive is refreshed. The version const is
//     bumped, with the codec updated, only when the bytes the codec
//     writes change; a field the codec never writes (a derived or
//     configuration field) needs the refresh alone, since bumping the
//     version would invalidate every cached snapshot for nothing.
//
// Carrier structs are found structurally: receivers of methods taking
// a *snap.Writer, structs passed by pointer alongside a *snap.Writer
// or *snap.Reader (the savePageMeta(w, *PageMeta) helper shape), and
// package-local structs whose fields are read inside save-scope bodies.
package snapmeta

import (
	"fmt"
	"go/ast"
	"go/types"
	"hash/fnv"
	"sort"
	"strings"

	"fpcache/internal/lint"
)

// Analyzer is the snapshot-versioning check.
var Analyzer = &lint.Analyzer{
	Name: "snapmeta",
	Doc: "pairs Snapshot with Restore, requires version tags, and pins a " +
		"fingerprint of snapshot state-carrier struct fields to the version const",
	Run: run,
}

const directive = "//fplint:snapfields"

// snapPkgSuffix identifies the codec package itself, which is exempt
// (its structs are codec internals, not serialized state).
const snapPkgSuffix = "internal/snap"

func run(pass *lint.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), snapPkgSuffix) {
		return nil
	}
	checkSnapshotRestorePairs(pass)

	carriers := findCarriers(pass)
	if len(carriers) == 0 {
		return nil
	}
	want := fingerprint(pass, carriers)
	checkDirective(pass, carriers, want)
	return nil
}

// --- Snapshot/Restore pairing -----------------------------------------

func checkSnapshotRestorePairs(pass *lint.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		snapFn := methodNamed(ms, "Snapshot")
		if snapFn == nil || !isStreamMethod(snapFn, "io", "Writer") {
			continue
		}
		restoreFn := methodNamed(ms, "Restore")
		if restoreFn == nil || !isStreamMethod(restoreFn, "io", "Reader") {
			pass.Reportf(tn.Pos(),
				"%s implements Snapshot(io.Writer) error but no Restore(io.Reader) error in this package; "+
					"a snapshot nobody can restore is dead state", name)
			continue
		}
		for _, m := range []*types.Func{snapFn, restoreFn} {
			if decl := declOf(pass, m); decl != nil && !writesVersion(pass, decl, 3, map[*ast.FuncDecl]bool{}) {
				pass.Reportf(decl.Pos(),
					"%s.%s handles no snapshot version tag (no *Version* identifier or versioned envelope "+
						"within reach); unversioned layouts cannot evolve", name, m.Name())
			}
		}
	}
}

func methodNamed(ms *types.MethodSet, name string) *types.Func {
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == name {
			return fn
		}
	}
	return nil
}

// isStreamMethod matches func(pkg.T) error single-parameter methods.
func isStreamMethod(fn *types.Func, pkgName, typeName string) bool {
	sig := fn.Signature()
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !isNamedType(sig.Params().At(0).Type(), pkgName, typeName) {
		return false
	}
	rt, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && rt.Obj().Name() == "error"
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		(obj.Pkg().Path() == pkgPath || strings.HasSuffix(obj.Pkg().Path(), "/"+pkgPath) || obj.Pkg().Path() == "io")
}

// declOf finds the FuncDecl of a method declared in this package.
func declOf(pass *lint.Pass, fn *types.Func) *ast.FuncDecl {
	if fn.Pkg() != pass.Pkg {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, _ := pass.Info.Defs[fd.Name].(*types.Func); obj == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// writesVersion reports whether decl references a *Version* identifier
// or reaches one through same-package calls within depth hops — the
// Snapshot -> SnapshotDesign -> snap.WriteEnvelope(..., Version, ...)
// delegation chain.
func writesVersion(pass *lint.Pass, decl *ast.FuncDecl, depth int, seen map[*ast.FuncDecl]bool) bool {
	if decl == nil || decl.Body == nil || seen[decl] || depth < 0 {
		return false
	}
	seen[decl] = true
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "version") {
				found = true
			}
		case *ast.CallExpr:
			if fn := lint.CalleeFunc(pass.Info, n); fn != nil && fn.Pkg() == pass.Pkg {
				if writesVersion(pass, declOf(pass, fn), depth-1, seen) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// --- carrier fingerprint ----------------------------------------------

// findCarriers returns the package-local named structs whose layout
// the snapshot codec depends on.
func findCarriers(pass *lint.Pass) map[*types.Named]bool {
	carriers := map[*types.Named]bool{}
	addType := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() != pass.Pkg {
			return
		}
		if _, ok := n.Underlying().(*types.Struct); ok {
			carriers[n] = true
		}
	}
	isSnapStream := func(t types.Type) bool {
		p, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		n, ok := p.Elem().(*types.Named)
		if !ok || n.Obj().Pkg() == nil || !strings.HasSuffix(n.Obj().Pkg().Path(), snapPkgSuffix) {
			return false
		}
		return n.Obj().Name() == "Writer" || n.Obj().Name() == "Reader"
	}

	// Collect save-scope bodies: declared functions and function
	// literals with a *snap.Writer parameter; pair-parameter structs
	// are carriers for both stream directions.
	var saveScopes []ast.Node
	scanSig := func(ft *ast.FuncType, body ast.Node, recv *ast.FieldList) {
		if ft.Params == nil {
			return
		}
		hasWriter, hasStream := false, false
		var ptrParams []types.Type
		for _, f := range ft.Params.List {
			t := pass.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if isSnapStream(t) {
				hasStream = true
				if n := t.(*types.Pointer).Elem().(*types.Named); n.Obj().Name() == "Writer" {
					hasWriter = true
				}
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				ptrParams = append(ptrParams, p)
			}
		}
		if hasStream {
			// Pointer-struct co-parameters of a codec stream are
			// carriers (the savePageMeta(w, *PageMeta) helper shape),
			// on both the save and load sides.
			for _, p := range ptrParams {
				addType(p)
			}
		}
		if hasWriter {
			if body != nil {
				saveScopes = append(saveScopes, body)
			}
			if recv != nil {
				for _, f := range recv.List {
					if t := pass.Info.TypeOf(f.Type); t != nil {
						addType(t)
					}
				}
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				scanSig(n.Type, bodyOrNil(n.Body), n.Recv)
			case *ast.FuncLit:
				scanSig(n.Type, n.Body, nil)
			}
			return true
		})
	}
	// Structs whose fields are read inside save scopes.
	for _, body := range saveScopes {
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(sel.X); t != nil {
				addType(t)
			}
			return true
		})
	}
	return carriers
}

func bodyOrNil(b *ast.BlockStmt) ast.Node {
	if b == nil {
		return nil
	}
	return b
}

// fingerprint hashes the carrier structs' field layout: names and
// types, in declaration order, structs sorted by name.
func fingerprint(pass *lint.Pass, carriers map[*types.Named]bool) uint32 {
	var names []string
	byName := map[string]*types.Named{}
	for n := range carriers {
		names = append(names, n.Obj().Name())
		byName[n.Obj().Name()] = n
	}
	sort.Strings(names)
	h := fnv.New32a()
	qual := types.RelativeTo(pass.Pkg)
	for _, name := range names {
		st := byName[name].Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fmt.Fprintf(h, "%s.%s %s\n", name, f.Name(), types.TypeString(f.Type(), qual))
		}
	}
	return h.Sum32()
}

func checkDirective(pass *lint.Pass, carriers map[*types.Named]bool, want uint32) {
	var directives []*ast.Comment
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directive+" ") || c.Text == directive {
					directives = append(directives, c)
				}
			}
		}
	}
	var carrierNames []string
	for n := range carriers {
		carrierNames = append(carrierNames, n.Obj().Name())
	}
	sort.Strings(carrierNames)
	switch len(directives) {
	case 0:
		pass.Reportf(pass.Files[0].Package,
			"package serializes snapshot state (carriers: %s) but pins no field fingerprint; "+
				"add `%s %#08x` on the snapshot version const; bump that const only when the bytes the codec writes change",
			strings.Join(carrierNames, ", "), directive, want)
	case 1:
		fields := strings.Fields(strings.TrimPrefix(directives[0].Text, directive))
		if len(fields) == 0 {
			pass.Reportf(directives[0].Pos(), "%s needs a fingerprint value; current layout is %#08x", directive, want)
			return
		}
		if got := fields[0]; got != fmt.Sprintf("%#08x", want) {
			pass.Reportf(directives[0].Pos(),
				"snapshot state-carrier fields changed: layout fingerprint is %#08x, directive records %s "+
					"(carriers: %s) — refresh the directive; bump the snapshot version const, with the codec, only if the bytes the codec writes changed",
				want, got, strings.Join(carrierNames, ", "))
		}
	default:
		pass.Reportf(directives[1].Pos(), "duplicate %s directive; keep exactly one per package", directive)
	}
}
