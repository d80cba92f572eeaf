package analysis

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
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	// Error carries the load/build error for this package when the -e
	// flag let go list continue past it. Without decoding this field
	// the loader can only say "did not load cleanly" — the actual
	// compiler message (syntax error, broken import) lives here.
	Error      *listError
	DepsErrors []*listError
}

// listError mirrors go list's PackageError JSON shape.
type listError struct {
	Pos string // file:line:col, may be empty
	Err string
}

func (e *listError) String() string {
	if e.Pos != "" {
		return e.Pos + ": " + e.Err
	}
	return e.Err
}

// goList runs the go command in dir and decodes its JSON object stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,Incomplete,Error,DepsErrors"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// NewImporter returns a types.Importer that resolves import paths
// through compiler export data files (as produced by `go list -export`).
// This is the unitchecker strategy: no source re-typechecking of
// dependencies, no network, no modules beyond what is already built.
func NewImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// ExportData maps every dependency of the given packages (resolved in
// dir's module context) to its export data file, compiling as needed.
func ExportData(dir string, pkgs ...string) (map[string]string, error) {
	if len(pkgs) == 0 {
		return map[string]string{}, nil
	}
	entries, err := goList(dir, append([]string{"-deps", "-export"}, pkgs...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

// TypeCheck parses no files itself: it type-checks the given parsed
// files as package path, resolving imports through imp.
func TypeCheck(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// Load loads, parses and type-checks the packages matched by patterns,
// resolved in dir's module context. Test files are excluded: the
// invariants govern production code, and determinism tests themselves
// legitimately use wall clocks and unseeded randomness.
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	fset := token.NewFileSet()
	imp := NewImporter(fset, exports)
	var pkgs []*Package
	for _, e := range entries {
		if e.DepOnly || e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		if e.Incomplete || e.Error != nil {
			// Surface the underlying compiler/loader message instead of
			// a bare "did not load cleanly": go list -e keeps going past
			// broken packages and parks the reason in Error/DepsErrors.
			switch {
			case e.Error != nil:
				return nil, fmt.Errorf("analysis: package %s did not load cleanly: %s", e.ImportPath, e.Error)
			case len(e.DepsErrors) > 0:
				return nil, fmt.Errorf("analysis: package %s did not load cleanly: dependency error: %s", e.ImportPath, e.DepsErrors[0])
			default:
				return nil, fmt.Errorf("analysis: package %s did not load cleanly (no detail from go list)", e.ImportPath)
			}
		}
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tpkg, info, err := TypeCheck(e.ImportPath, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-check %s: %v", e.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{Path: e.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Finding is one surviving diagnostic with its position resolved.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// AnalyzerStats counts one analyzer's activity across a whole run.
type AnalyzerStats struct {
	// Findings is the number of surviving (unsuppressed) diagnostics.
	Findings int
	// Suppressed is the number of diagnostics silenced by a
	// //jaalvet:ignore comment.
	Suppressed int
}

// Result is the full outcome of a vet run.
type Result struct {
	// Findings are the surviving diagnostics (suppressions applied,
	// malformed suppression comments included) in file/line order.
	Findings []Finding
	// Stale lists jaalvet:ignore comments that silenced nothing —
	// advisory, reported separately so callers can warn without
	// failing.
	Stale []Finding
	// Stats maps analyzer name → counts, one entry per analyzer that
	// ran. Malformed suppressions count under "jaalvet", present only
	// when there are any.
	Stats map[string]*AnalyzerStats
}

// Run applies every analyzer to every package and returns the surviving
// findings — suppressions already applied, malformed suppression
// comments reported as findings themselves — in file/line order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	res, err := RunDetailed(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// RunDetailed is Run plus per-analyzer counts and stale-suppression
// detection. Packages are visited importers-first (a package before
// everything it imports) so analyzers using Pass.Shared see caller
// packages before callee packages; findings are still reported in
// file/line order regardless.
func RunDetailed(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{Stats: make(map[string]*AnalyzerStats)}
	stat := func(name string) *AnalyzerStats {
		s := res.Stats[name]
		if s == nil {
			s = &AnalyzerStats{}
			res.Stats[name] = s
		}
		return s
	}
	ran := make(map[string]bool, len(analyzers))
	shared := make(map[string]map[string]any, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		stat(a.Name)
		shared[a.Name] = make(map[string]any)
	}
	for _, pkg := range importersFirst(pkgs) {
		sup, malformed := scanSuppressions(pkg.Fset, pkg.Files)
		res.Findings = append(res.Findings, malformed...)
		stat("jaalvet").Findings += len(malformed)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Shared:    shared[a.Name],
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diagnostics {
				p := pkg.Fset.Position(d.Pos)
				if sup.covers(p, a.Name) {
					stat(a.Name).Suppressed++
				} else {
					res.Findings = append(res.Findings, Finding{Position: p, Analyzer: d.Analyzer, Message: d.Message})
					stat(a.Name).Findings++
				}
			}
		}
		res.Stale = append(res.Stale, sup.stale(ran)...)
	}
	sortFindings(res.Findings)
	sortFindings(res.Stale)
	if s, ok := res.Stats["jaalvet"]; ok && s.Findings == 0 && s.Suppressed == 0 {
		delete(res.Stats, "jaalvet")
	}
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		fi, fj := fs[i].Position, fs[j].Position
		if fi.Filename != fj.Filename {
			return fi.Filename < fj.Filename
		}
		if fi.Line != fj.Line {
			return fi.Line < fj.Line
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// importersFirst orders packages so that every package precedes the
// packages it imports (reverse dependency order), deterministically:
// roots and import edges are both walked in path order. Call direction
// follows import direction, so cross-package facts deposited by an
// importer are visible when its dependencies are analyzed.
func importersFirst(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	roots := make([]*Package, len(pkgs))
	copy(roots, pkgs)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })

	// DFS post-order over import edges puts dependencies first;
	// reversing it puts importers first.
	var post []*Package
	visited := make(map[string]bool, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if visited[p.Path] {
			return
		}
		visited[p.Path] = true
		imps := p.Types.Imports()
		paths := make([]string, 0, len(imps))
		for _, ip := range imps {
			paths = append(paths, ip.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if q := byPath[path]; q != nil {
				visit(q)
			}
		}
		post = append(post, p)
	}
	for _, p := range roots {
		visit(p)
	}
	out := make([]*Package, len(post))
	for i, p := range post {
		out[len(post)-1-i] = p
	}
	return out
}
