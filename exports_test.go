package distgnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported funcs and methods under internal/ that no
// program calls but that stay on purpose, one reason each.
var exportAllowlist = map[string]string{
	"MaxAbsDiff":    "tensor's fp32-vs-reference tolerance checks in kernel and model tests",
	"Transpose":     "builds the reference operand for the transposed-GEMM kernel tests",
	"RandomUniform": "seeded random operands for tensor, spmm and model tests",
	"Inverse":       "reorder tests check a permutation composed with its inverse is the identity",
	"GroupFor":      "frontend tests read the hash ring's vertex→group mapping",
	"MaxDegree":     "datasets tests check RMAT skew through the heaviest vertex",
	"TotalEdges":    "partition tests check every edge lands in exactly one part",
	"HitRate":       "cachesim tests read the simulated LRU's hit rate",
	"ReuseFactor":   "cachesim tests read the modelled reuse of a blocked sweep",
	"AddVertices":   "the mutation-overlay fuzz target grows the vertex set",
	"Inc":           "obs tests drive a counter by one",
	"MustLoad":      "test set-up loads a registry dataset and fails fast",
	"MustGenerate":  "test set-up generates a synthetic graph and fails fast",
	"Test":          "p2p tests check a pending receive reports incomplete without consuming it",
	"InEdgeIDs":     "graph, spmm, partition and hetero tests read a vertex's in-edge IDs",
	"Count":         "obs tests read a histogram's sample count",
}

// interfaceMethods are satisfied implicitly, so a program may call them
// through sort.Sort or fmt without ever naming them.
var interfaceMethods = map[string]bool{"Len": true, "Less": true, "Swap": true, "String": true}

// nonTestGoFiles parses every non-test .go file under the given roots.
func nonTestGoFiles(t *testing.T, fset *token.FileSet, roots ...string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestNoTestOnlyExports fails on any exported func or method under
// internal/ whose name no non-test file of internal/, cmd/, examples/ or
// perfbench/ mentions outside its own declaration: such an export is
// reached only by its own tests.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := nonTestGoFiles(t, fset, "internal", "cmd", "examples", "perfbench")

	type decl struct {
		name     string
		pos, end token.Pos
	}
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(fset.Position(f.Pos()).Filename, "internal"+string(filepath.Separator)) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				decls = append(decls, decl{fd.Name.Name, fd.Pos(), fd.End()})
			}
		}
	}

	// Every identifier use, by name, with where it stands.
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var orphans []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if interfaceMethods[d.name] {
			continue
		}
		used := slices.ContainsFunc(uses[d.name], func(p token.Pos) bool {
			return p < d.pos || p >= d.end
		})
		switch {
		case used:
		case exportAllowlist[d.name] != "":
			allowed[d.name] = true
		default:
			orphans = append(orphans, fset.Position(d.pos).String()+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported but called by no program: %s", o)
	}
	// An allowlist entry that excuses nothing is stale.
	for name := range exportAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s excuses no test-only export", name)
		}
	}
}
