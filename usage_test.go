package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag package's flag-defining functions (and
// FlagSet methods); the flag's name is their first argument, or their
// second for the ...Var forms.
var flagDefiners = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true, "Func": true, "BoolFunc": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"StringVar": true, "Float64Var": true, "DurationVar": true, "TextVar": true, "Var": true,
}

// usageFlag matches a -name token in a usage line: a dash at the start
// of a word or right after an opening bracket.
var usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([A-Za-z][\w-]*)`)

// TestCommandUsageMatchesFlags holds every command's doc-comment usage
// block to the flags the command defines: each flag.X("name", …) or
// fs.X("name", …) call in cmd/<command> must appear as -name in a
// tab-indented line of one of the package's doc comments, and each such
// -name must be a defined flag.
func TestCommandUsageMatchesFlags(t *testing.T) {
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no commands under cmd/")
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		defined := map[string]bool{}
		documented := map[string]bool{}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			collectFlags(f, defined)
			docs := []*ast.CommentGroup{f.Doc}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					docs = append(docs, d.Doc)
				case *ast.GenDecl:
					docs = append(docs, d.Doc)
				}
			}
			for _, g := range docs {
				collectUsage(g, documented)
			}
		}
		if missing := difference(defined, documented); len(missing) > 0 {
			t.Errorf("%s: flags missing from the usage block: %s", dir, strings.Join(missing, " "))
		}
		if stale := difference(documented, defined); len(stale) > 0 {
			t.Errorf("%s: usage block names undefined flags: %s", dir, strings.Join(stale, " "))
		}
	}
}

// collectFlags adds the name of every flag.X / fs.X definition in f.
func collectFlags(f *ast.File, into map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || (x.Name != "flag" && x.Name != "fs") {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				into[name] = true
			}
		}
		return true
	})
}

// collectUsage adds every -name token of g's tab-indented lines.
func collectUsage(g *ast.CommentGroup, into map[string]bool) {
	if g == nil {
		return
	}
	for _, c := range g.List {
		line, ok := strings.CutPrefix(c.Text, "//\t")
		if !ok {
			continue
		}
		for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
			into[m[1]] = true
		}
	}
}

// difference returns the sorted keys of a that b lacks.
func difference(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, "-"+k)
		}
	}
	sort.Strings(out)
	return out
}
