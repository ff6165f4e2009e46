package lint

// The //fplint:ignore directive. A finding is suppressed by a comment
//
//	//fplint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the same line as the finding, or on the line directly above it
// when the directive stands alone. The reason is mandatory — an
// invariant someone silenced without saying why is an invariant lost —
// so a reasonless directive is reported (analyzer name "fplint") and
// suppresses nothing. Every application is counted: RunProgramAudit
// reports how many findings each directive absorbed, and StaleIgnores
// turns zero-use directives into findings of their own.

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const ignorePrefix = "//fplint:ignore"

// IgnoreUse is the audit record of one well-formed ignore directive.
type IgnoreUse struct {
	// Pos is the directive comment's position.
	Pos token.Position
	// Analyzers are the analyzer names the directive targets, sorted.
	Analyzers []string
	// Suppressed counts the findings the directive absorbed in this
	// run. The shipped tree's contract is exactly one per directive.
	Suppressed int
}

type ignoreDirective struct {
	analyzers map[string]bool
	pos       token.Position
	ok        bool // has a reason
	used      int
}

// parseIgnore parses one comment, returning nil if it is not an
// ignore directive.
func parseIgnore(fset *token.FileSet, c *ast.Comment) *ignoreDirective {
	text, found := strings.CutPrefix(c.Text, ignorePrefix)
	if !found {
		return nil
	}
	// "//fplint:ignoreX" is some other word, not a directive.
	if text != "" && text[0] != ' ' && text[0] != '\t' {
		return nil
	}
	d := &ignoreDirective{analyzers: map[string]bool{}, pos: fset.Position(c.Pos())}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return d // analyzer list missing; reported, suppresses nothing
	}
	for _, name := range strings.Split(fields[0], ",") {
		if name != "" {
			d.analyzers[name] = true
		}
	}
	d.ok = len(fields) > 1 // reason present
	return d
}

// applyIgnores filters diags through the directives found in files,
// appends a diagnostic for every malformed directive, and returns the
// per-directive audit. Only diagnostics positioned in files' filenames
// are touched, so the caller can apply per package while accumulating
// across packages.
func applyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) ([]Diagnostic, []IgnoreUse) {
	type key struct {
		file string
		line int
	}
	suppress := map[key][]*ignoreDirective{}
	inFiles := map[string]bool{}
	var directives []*ignoreDirective
	var malformed []Diagnostic
	for _, f := range files {
		inFiles[fset.Position(f.Pos()).Filename] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseIgnore(fset, c)
				if d == nil {
					continue
				}
				if !d.ok {
					malformed = append(malformed, Diagnostic{
						Analyzer: "fplint",
						Pos:      d.pos,
						Message:  "//fplint:ignore needs an analyzer name and a reason: //fplint:ignore <analyzer> <why this is safe>",
					})
					continue
				}
				directives = append(directives, d)
				// The directive covers its own line and the next one, so
				// it works both as a trailing comment and on a line of
				// its own above the finding.
				for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
					k := key{d.pos.Filename, line}
					suppress[k] = append(suppress[k], d)
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if inFiles[d.Pos.Filename] {
			if hit := matchDirective(suppress[key{d.Pos.Filename, d.Pos.Line}], d.Analyzer); hit != nil {
				hit.used++
				continue
			}
		}
		kept = append(kept, d)
	}
	var audit []IgnoreUse
	for _, d := range directives {
		var names []string
		for a := range d.analyzers {
			names = append(names, a)
		}
		sort.Strings(names)
		audit = append(audit, IgnoreUse{Pos: d.pos, Analyzers: names, Suppressed: d.used})
	}
	return append(kept, malformed...), audit
}

// matchDirective returns the first directive at the finding's line
// that targets its analyzer.
func matchDirective(ds []*ignoreDirective, analyzer string) *ignoreDirective {
	for _, d := range ds {
		if d.analyzers[analyzer] {
			return d
		}
	}
	return nil
}
