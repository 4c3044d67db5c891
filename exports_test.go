package distgnn_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllowlist names declarations under internal/ that no program
// reads but that stay on purpose, keyed by qualified name, one reason each.
var deadCodeAllowlist = map[string]string{
	"tensor.Matrix.MaxAbsDiff":     "tensor's fp32-vs-reference tolerance checks in kernel and model tests",
	"tensor.Matrix.Transpose":      "builds the reference operand for the transposed-GEMM kernel tests",
	"tensor.RandomUniform":         "seeded random operands for tensor, spmm and model tests",
	"graph.Permutation.Inverse":    "reorder tests check a permutation composed with its inverse is the identity",
	"serve.Frontend.GroupFor":      "frontend tests read the hash ring's vertex→group mapping",
	"graph.CSR.MaxDegree":          "datasets tests check RMAT skew through the heaviest vertex",
	"graph.Blocked.TotalEdges":     "blocking tests check every edge lands in exactly one block",
	"featstore.CacheStats.HitRate": "serve's cache tests read the embedding cache's hit rate",
	"cachesim.APStats.ReuseFactor": "cachesim tests read the modelled reuse of a blocked sweep",
	"graph.Mutable.AddVertices":    "the mutation-overlay fuzz target grows the vertex set",
	"datasets.MustLoad":            "test set-up loads a registry dataset and fails fast",
	"datasets.MustGenerate":        "test set-up generates a synthetic graph and fails fast",
	"comm.Request.Test":            "p2p tests check a pending receive reports incomplete without consuming it",
	"graph.CSR.InEdgeIDs":          "graph, spmm, partition and hetero tests read a vertex's in-edge IDs",
	"obs.Histogram.Count":          "obs tests read a histogram's sample count",
	"serve.Fleet.Kill":             "the failover tests kill a replica mid-run",
	"datasets.EdgeEvent.Burst":     "stream tests check the MMPP alternates between its two states",
	"train.wireEpoch.netMsgs":      "timing tests pin the replay's message count to the exchange's",
	"train.wireEpoch.netBytes":     "timing tests pin the replay's wire bytes to the exchange's",
	"bench.kernelSink":             "keeps the timed kernel passes' results live so the compiler cannot drop them",
}

// stdDispatched are standard-library interfaces whose methods the standard
// library calls on a program's behalf, so a method that satisfies one is
// reached without the program naming it. error joins them in deadCode.
var stdDispatched = [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}}

// gateTags are the build-tag sets the gate type-checks under: a
// declaration that some file set reaches has a program reader.
var gateTags = [][]string{nil, {"purego"}}

// gateFset and gateStd are shared by every gate run, so the standard
// library is type-checked from source once per test binary.
var (
	gateFset = token.NewFileSet()
	gateStd  = func() types.Importer {
		// The source importer reads build.Default. Its pure-Go file set
		// declares the same API without running the C toolchain over net
		// and os/user.
		build.Default.CgoEnabled = false
		return importer.ForCompiler(gateFset, "source", nil)
	}()
)

// program type-checks a module's non-test Go, package by package, as a
// types.Importer of its own packages.
type program struct {
	root, module string // module directory and path
	ctx          build.Context
	seen         map[string]bool        // import paths resolved in ctx
	checked      map[string]*checkedPkg // by import path, as last checked
	pkgs         []*checkedPkg          // every package checked, in every context
}

type checkedPkg struct {
	names []string // its Go files in the context it was checked in
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// Import checks a package of the module in p.ctx, unless it has the same
// files as when last checked, and leaves the rest to the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	if path != p.module && !strings.HasPrefix(path, p.module+"/") {
		return gateStd.Import(path)
	}
	cp := p.checked[path]
	if p.seen[path] {
		return cp.pkg, nil
	}
	dir := filepath.Join(p.root, strings.TrimPrefix(path, p.module))
	bp, err := p.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p.seen[path] = true
	if cp != nil && slices.Equal(cp.names, bp.GoFiles) {
		return cp.pkg, nil
	}
	cp = &checkedPkg{names: bp.GoFiles, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(gateFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	conf := types.Config{Importer: p}
	if cp.pkg, err = conf.Check(path, gateFset, cp.files, cp.info); err != nil {
		return nil, err
	}
	p.checked[path] = cp
	p.pkgs = append(p.pkgs, cp)
	return cp.pkg, nil
}

// load checks every package under dirs (relative to p.root) in ctx.
func (p *program) load(ctx build.Context, dirs []string) error {
	p.ctx, p.seen = ctx, map[string]bool{}
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(p.root, d), func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(p.root, path)
			if err != nil {
				return err
			}
			_, err = p.Import(p.module + "/" + filepath.ToSlash(rel))
			if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// gate is what deadCode learns of a program: what is declared under
// internal/ and what the program reads.
type gate struct {
	internal   string                    // import-path prefix of internal/
	decls      map[string]token.Position // qualified name → where declared
	fieldNames map[*types.Var]string     // each named-struct field's qualified name
	methods    []*types.Func             // methods declared on named types
	ifaceCalls map[*types.Func]bool      // interface methods called
	read       map[string]bool           // qualified names read
}

// deadCode type-checks the non-test Go under dirs of the module at root, once
// per gateTags set, and returns "file:line: qualified.name", ordered by name,
// for every package-level func, method, type, const, var and interface method
// declared under internal/ that no program file reads, and every field of a
// named struct type there that no program file reads. Uses inside a
// declaration's own body or spec, and a type's mentions in its own method
// receivers, do not count. A method counts as read when the program calls,
// through an interface, a method of that name that its type implements.
func deadCode(root, module string, dirs ...string) ([]string, error) {
	// The type-checker churns through short-lived garbage over a live heap
	// of ~30 MB: collect less often, off the CPU other packages' tests use.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	g := &gate{
		internal:   module + "/internal/",
		decls:      map[string]token.Position{},
		fieldNames: map[*types.Var]string{},
		ifaceCalls: map[*types.Func]bool{},
		read:       map[string]bool{},
	}
	for _, q := range stdDispatched {
		pkg, err := gateStd.Import(q[0])
		if err != nil {
			return nil, err
		}
		iface := pkg.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface)
		for m := range iface.Methods() {
			g.ifaceCalls[m] = true
		}
	}
	g.ifaceCalls[types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)] = true

	p := &program{root: root, module: module, checked: map[string]*checkedPkg{}}
	for _, tags := range gateTags {
		ctx := build.Default
		ctx.BuildTags = tags
		if err := p.load(ctx, dirs); err != nil {
			return nil, err
		}
	}
	for _, cp := range p.pkgs {
		if strings.HasPrefix(cp.pkg.Path(), g.internal) {
			g.collect(cp.pkg)
		}
	}
	for _, cp := range p.pkgs {
		for _, f := range cp.files {
			g.markReads(f, cp.info)
		}
	}
	for _, m := range g.methods {
		if g.calledThroughInterface(m.Name(), m.Signature().Recv().Type()) {
			g.read[g.qualify(m)] = true
		}
	}

	var dead []string
	for _, name := range slices.Sorted(maps.Keys(g.decls)) {
		if pos := g.decls[name]; !g.read[name] {
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				return nil, err
			}
			dead = append(dead, filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+": "+name)
		}
	}
	return dead, nil
}

// calledThroughInterface reports whether some interface method the
// program calls is named name and implemented by recv or *recv.
func (g *gate) calledThroughInterface(name string, recv types.Type) bool {
	for im := range g.ifaceCalls {
		if im.Name() != name {
			continue
		}
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// collect records every package-level declaration of pkg, its methods, the
// methods of its interfaces and the fields of its named struct types.
func (g *gate) collect(pkg *types.Package) {
	add := func(name string, obj types.Object) { g.decls[name] = gateFset.Position(obj.Pos()) }
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if name == "init" || name == "_" {
			continue
		}
		obj := scope.Lookup(name)
		q := pkg.Name() + "." + name
		add(q, obj)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for m := range named.Methods() {
			add(q+"."+m.Name(), m)
			g.methods = append(g.methods, m)
		}
		switch u := named.Underlying().(type) {
		case *types.Interface:
			for m := range u.ExplicitMethods() {
				add(q+"."+m.Name(), m)
			}
		case *types.Struct:
			for i := range u.NumFields() {
				f := u.Field(i)
				g.fieldNames[f] = q + "." + f.Name()
				// Embedded fields are read by every promoted selection, and
				// tagged ones by reflection (encoding/json).
				if !f.Embedded() && f.Name() != "_" && u.Tag(i) == "" {
					add(q+"."+f.Name(), f)
				}
			}
		}
	}
}

// qualify returns the qualified name under which obj is declared in a
// package under internal/, or "" for anything else.
func (g *gate) qualify(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), g.internal) {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Signature().Recv()
		if recv == nil {
			return o.Pkg().Name() + "." + o.Name()
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return o.Pkg().Name() + "." + named.Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.Var:
		if o.IsField() {
			return g.fieldNames[o.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // local to a function
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// markReads records every object f reads outside its own declaration, and
// every interface method f calls. An identifier that stands as an
// assignment target or a composite-literal key is written, not read.
func (g *gate) markReads(f *ast.File, info *types.Info) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		case *ast.Ident:
			writes[e] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
						}
					}
				}
			}
		}
		return true
	})
	for _, d := range f.Decls {
		self := map[string]bool{}
		var recv *ast.FieldList
		switch d := d.(type) {
		case *ast.FuncDecl:
			self[g.qualify(info.Defs[d.Name])] = true
			recv = d.Recv
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[g.qualify(info.Defs[s.Name])] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[g.qualify(info.Defs[n])] = true
					}
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if recv != nil && n == recv {
				return false // a type's own receivers do not read it
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				if r := fn.Signature().Recv(); r != nil && types.IsInterface(r.Type()) {
					g.ifaceCalls[fn] = true
				}
			}
			if q := g.qualify(obj); q != "" && !writes[id] && !self[q] {
				g.read[q] = true
			}
			return true
		})
	}
}

// TestNoTestOnlyExports fails on any declaration under internal/ (exported
// or not) that no non-test file of internal/, cmd/, examples/ or perfbench/
// reads: such a declaration is reached only by its own tests.
func TestNoTestOnlyExports(t *testing.T) {
	dead, err := deadCode(".", "distgnn", "internal", "cmd", "examples", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range dead {
		name := d[strings.LastIndex(d, " ")+1:]
		if deadCodeAllowlist[name] != "" {
			allowed[name] = true
			continue
		}
		t.Errorf("read by no program: %s", d)
	}
	// An allowlist entry that excuses nothing is stale.
	for name := range deadCodeAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s excuses nothing", name)
		}
	}
}

// TestDeadCodeGateFixture runs the gate on testdata/exportgate, which holds
// a method only its test calls, named like the http.Header.Set that the
// fixture's program calls, and a field the program writes and never reads.
// A gate keyed on names passes both.
func TestDeadCodeGateFixture(t *testing.T) {
	dead, err := deadCode(filepath.Join("testdata", "exportgate"), "exportgate", "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/box/box.go:9: box.Box.Label",
		"internal/box/box.go:18: box.Box.Set",
	}
	if !slices.Equal(dead, want) {
		t.Fatalf("gate reports %q, want %q", dead, want)
	}
}
