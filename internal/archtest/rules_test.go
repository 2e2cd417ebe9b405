package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

const (
	confPath     = modulePath + "/internal/conformance"
	corePath     = modulePath + "/internal/core"
	enginePath   = modulePath + "/internal/engine"
	fieldPath    = modulePath + "/internal/field"
	framesPath   = modulePath + "/internal/wire/frames"
	gkrPath      = modulePath + "/internal/gkr"
	parallelPath = modulePath + "/internal/parallel"
	sumcheckPath = modulePath + "/internal/sumcheck"
	wirePath     = modulePath + "/internal/wire"
)

// A rule states one "the only uses of X are in Y" of the design. check
// returns the rule's findings on m, each "path:line: what".
type rule struct {
	name  string
	check func(t *testing.T, m *module) []string
}

// rules are the architecture rules, named after the design's "one way to
// do it" statements. Each has mutation rows in mutations_test.go.
var rules = []rule{
	{"sumcheck-halves", sumcheckHalves},
	{"prover-side", proverSide},
	{"kind-table", kindTable},
	{"no-concrete-verifier", noConcreteVerifier},
	{"codec-seams", codecSeams},
	{"prover-input", proverInput},
	{"gkr-sessions", gkrSessions},
	{"split-session", splitSession},
	{"sumcheck-shape", sumcheckShape},
	{"one-schedule", oneSchedule},
	{"no-field-image", noFieldImage},
	{"fan-out-sites", fanOutSites},
	{"test-only-export", testOnlyExport},
}

// TestRules checks every rule against the tree.
func TestRules(t *testing.T) {
	m := tree(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.check(t, m) {
				t.Error(f)
			}
		})
	}
}

// findings collects a rule's reports in position order.
type findings struct {
	m   *module
	out []string
}

func (fs *findings) add(pos token.Pos, format string, args ...any) {
	fs.out = append(fs.out, fs.m.at(pos)+": "+fmt.Sprintf(format, args...))
}

func (fs *findings) sorted() []string {
	slices.Sort(fs.out)
	return fs.out
}

// inspect walks files, calling fn with each node and the top-level
// function declaration around it (nil outside one).
func inspect(files []*ast.File, fn func(f *ast.File, decl *ast.FuncDecl, n ast.Node)) {
	for _, f := range files {
		for _, d := range f.Decls {
			decl, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					fn(f, decl, n)
				}
				return true
			})
		}
	}
}

// uses calls fn for every identifier in p's non-test files that names an
// object, with the file and the declaration around it. A call, a method
// value and a plain reference are all uses.
func uses(p *pkg, fn func(f *ast.File, decl *ast.FuncDecl, id *ast.Ident, obj types.Object)) {
	inspect(p.files, func(f *ast.File, decl *ast.FuncDecl, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				fn(f, decl, id, obj)
			}
		}
	})
}

// isFunc reports whether obj is the package-level function ip.name.
func isFunc(obj types.Object, ip, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != ip || fn.Name() != name {
		return false
	}
	return fn.Origin().Type().(*types.Signature).Recv() == nil
}

// isConst reports whether obj is the package-level constant ip.name.
func isConst(obj types.Object, ip, name string) bool {
	c, ok := obj.(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == ip && c.Name() == name
}

// named returns the named type t denotes, through aliases and one
// pointer, or nil.
func named(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type ip.name.
func isNamed(t types.Type, ip, name string) bool {
	n := named(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == ip && n.Obj().Name() == name
}

// recvName returns the name of a method's receiver type, or "" for a
// function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	if n := named(recv.Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// declRecv returns the receiver type name of a method declaration, or ""
// for a function.
func declRecv(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch t := t.(type) {
	case *ast.IndexExpr:
		return t.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return t.X.(*ast.Ident).Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// seen returns the version of package ip that p was checked against: p
// itself, or the package p reaches through its imports.
func seen(p *pkg, ip string) *types.Package {
	if p.types == nil {
		return nil
	}
	visited := map[*types.Package]bool{}
	var walk func(tp *types.Package) *types.Package
	walk = func(tp *types.Package) *types.Package {
		if tp.Path() == ip {
			return tp
		}
		if visited[tp] {
			return nil
		}
		visited[tp] = true
		for _, imp := range tp.Imports() {
			if r := walk(imp); r != nil {
				return r
			}
		}
		return nil
	}
	return walk(p.types)
}

// session returns core's ProverSession or VerifierSession interface as p
// sees it, or nil when p does not reach core.
func session(p *pkg, name string) *types.Interface {
	core := seen(p, corePath)
	if core == nil {
		return nil
	}
	tn, _ := core.Scope().Lookup(name).(*types.TypeName)
	if tn == nil {
		return nil
	}
	it, _ := tn.Type().Underlying().(*types.Interface)
	return it
}

// implements reports whether t or, for a concrete non-pointer t, *t
// implements it.
func implements(t types.Type, it *types.Interface) bool {
	if it == nil {
		return false
	}
	if types.Implements(t, it) {
		return true
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return false
	}
	return types.Implements(types.NewPointer(t), it)
}

// typeNames returns p's package-level named types that are neither
// aliases nor interfaces.
func typeNames(p *pkg) []*types.TypeName {
	var out []*types.TypeName
	if p.types == nil {
		return nil
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		out = append(out, tn)
	}
	return out
}

// testMethods maps each receiver type name declared with methods in p's
// files (test and non-test) to its method names.
func testMethods(p *pkg) map[string][]string {
	out := map[string][]string{}
	for _, f := range slices.Concat(p.files, p.tests) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				r := declRecv(fd)
				out[r] = append(out[r], fd.Name.Name)
			}
		}
	}
	return out
}

// testSessions returns, for every test file of m, the types its package
// (test files included) gives both an Open and a Step method: the
// syntactic shape of a prover session. Each is reported once, at its
// first test-file method, as "dir.Type".
func testSessions(m *module) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, p := range m.order {
		methods := testMethods(p)
		for _, f := range p.tests {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				r := declRecv(fd)
				key := p.dir + "." + r
				if _, done := out[key]; done {
					continue
				}
				if slices.Contains(methods[r], "Open") && slices.Contains(methods[r], "Step") {
					out[key] = fd.Pos()
				}
			}
		}
	}
	return out
}

// exported maps the exported declarations of files to their positions:
// functions, types, variables and constants by name, methods of exported
// types as "Recv.Name", struct fields as "Type.Field" and interface
// methods as "Type.Method".
func exported(files []*ast.File) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				r := declRecv(d)
				switch {
				case !d.Name.IsExported() || r != "" && !ast.IsExported(r):
				case r != "":
					out[r+"."+d.Name.Name] = d.Pos()
				default:
					out[d.Name.Name] = d.Pos()
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out[n.Name] = n.Pos()
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						out[s.Name.Name] = s.Pos()
						var fields *ast.FieldList
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								if n.IsExported() {
									out[s.Name.Name+"."+n.Name] = n.Pos()
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// exactly reports every entry of got (each at its position) that want
// lacks, and every entry of want that got lacks, at missingAt.
func exactly(fs *findings, what string, got map[string]token.Pos, want []string, missingAt token.Pos) {
	for g, pos := range got {
		if !slices.Contains(want, g) {
			fs.add(pos, "%s gained %s; add it to the rule's list only with the design change it records", what, g)
		}
	}
	for _, w := range want {
		if _, ok := got[w]; !ok {
			fs.add(missingAt, "%s lost %s; if that is on purpose, drop it from this rule's list", what, w)
		}
	}
}

// sumcheckHalves: outside package sumcheck, sumcheck.NewProver and
// sumcheck.NewVerifier are used only in internal/core/halves.go, the one
// verifier/prover half pair every sum-check conversation runs on. A use
// is a call or a function value, under any import name. Test files may
// build sum-check provers as references.
func sumcheckHalves(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	for _, p := range m.order {
		if p.path == sumcheckPath {
			continue
		}
		uses(p, func(f *ast.File, _ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			if m.name(f) == "internal/core/halves.go" {
				return
			}
			if isFunc(obj, sumcheckPath, "NewProver") || isFunc(obj, sumcheckPath, "NewVerifier") {
				fs.add(id.Pos(), "uses sumcheck.%s; run the conversation on the halves in internal/core/halves.go", obj.Name())
			}
		})
	}
	return fs.sorted()
}

// proverSide: the prover side of a connection is wire.Mux. No non-test
// internal/shard file names frames.ProverCh or frames.ProofCh, so the
// router writes no prover or proof frame itself (its tests may, as
// liars), and internal/shard declares no prover session of its own.
// Across internal/wire/... and internal/shard, a listener's Accept is
// used once, in a method of wire.Lifecycle, the one accept loop the
// server and the router share.
func proverSide(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	netPkg, err := m.std.Import("net")
	if err != nil {
		t.Fatal(err)
	}
	listener := netPkg.Scope().Lookup("Listener").Type().Underlying().(*types.Interface)
	var accepts []token.Pos
	for _, p := range m.order {
		shard := within(p.dir, "internal/shard")
		if !shard && !within(p.dir, "internal/wire") {
			continue
		}
		uses(p, func(_ *ast.File, decl *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			if shard && (isConst(obj, framesPath, "ProverCh") || isConst(obj, framesPath, "ProofCh")) {
				fs.add(id.Pos(), "internal/shard writes frames.%s itself; serve the conversation through wire.Mux", obj.Name())
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() != "Accept" {
				return
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !implements(recv.Type(), listener) {
				return
			}
			accepts = append(accepts, id.Pos())
			if p.path != wirePath || decl == nil || declRecv(decl) != "Lifecycle" {
				fs.add(id.Pos(), "an Accept outside wire.Lifecycle; serve connections through wire.Lifecycle")
			}
		})
		if !shard {
			continue
		}
		ps := session(p, "ProverSession")
		for _, tn := range typeNames(p) {
			if implements(tn.Type(), ps) {
				fs.add(tn.Pos(), "internal/shard declares the prover session %s; the router serves core's sessions through wire.Mux", tn.Name())
			}
		}
	}
	if len(accepts) > 1 {
		fs.add(accepts[1], "%d Accept calls in internal/wire and internal/shard; wire.Lifecycle holds the one accept loop", len(accepts))
	}
	return fs.sorted()
}

// isKind reports whether t is engine.QueryKind, under any alias (wire.,
// sip.).
func isKind(t types.Type) bool { return t != nil && isNamed(t, enginePath, "QueryKind") }

// familyHomes are the non-test files that name a summary family: core's
// summary.go, which draws them, and the kind table, which says which
// families each kind's verifier adopts.
var familyHomes = []string{"internal/core/summary.go", "internal/engine/kinds.go"}

// kindTable: a query kind is one row of internal/engine/kinds.go. Nothing
// outside that file and bench/ (whose check.go keeps its own answers as
// the benchmark's independent oracle) switches on an engine.QueryKind,
// whichever alias names it: no switch has a QueryKind tag or a QueryKind
// case. Test files are held to it through their imports: a case naming a
// QueryKind constant. The row's families column is the one choice of a
// verifier's summaries: no non-test file but familyHomes names
// core.FamilyTree, FamilyPoint or FamilyAug.
func kindTable(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	for _, p := range m.order {
		uses(p, func(f *ast.File, _ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			if slices.Contains(familyHomes, m.name(f)) {
				return
			}
			for _, fam := range []string{"FamilyTree", "FamilyPoint", "FamilyAug"} {
				if isConst(obj, corePath, fam) {
					fs.add(id.Pos(), "names core.%s; a kind's summary families are its row's families column in internal/engine/kinds.go", fam)
				}
			}
		})
		if within(p.dir, "bench") {
			continue
		}
		inspect(p.files, func(f *ast.File, _ *ast.FuncDecl, n ast.Node) {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || m.name(f) == "internal/engine/kinds.go" {
				return
			}
			kind := sw.Tag != nil && isKind(p.info.TypeOf(sw.Tag))
			for _, c := range sw.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					kind = kind || isKind(p.info.TypeOf(e))
				}
			}
			if kind {
				fs.add(sw.Pos(), "a switch on engine.QueryKind; a query kind is one row of internal/engine/kinds.go")
			}
		})
		for _, f := range p.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				c, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range c.List {
					obj := m.testObj(p, f, e)
					if _, isType := obj.(*types.TypeName); obj != nil && !isType && isKind(obj.Type()) {
						fs.add(c.Pos(), "a test switches on engine.QueryKind; a query kind is one row of internal/engine/kinds.go")
						break
					}
				}
				return true
			})
		}
	}
	return fs.sorted()
}

// streamingClients are the clients that feed a stream to verifiers they
// hold across it: each holds engine.Tickets, drawn before the stream.
var streamingClients = []string{"internal/kvstore", "cmd/sipclient", "examples/shareddataset", "examples/concurrentqueries"}

// noConcreteVerifier: sip, cmd, examples and internal/kvstore read a
// verified result through the kind table's answer column
// (engine.AnswerOf), never by asserting a concrete core or gkr type or by
// listing one in a type switch. The streaming clients build no verifier
// of their own: the only calls or function values among them that yield
// a core.VerifierSession are (*engine.Ticket).Spend and
// engine.NewStreamVerifier, which spends a one-kind ticket at once (for
// CIRCUIT, which no ticket serves ahead, and for a posted proof's
// verifier, seeded by its binding).
func noConcreteVerifier(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	concrete := func(p *pkg, e ast.Expr) (string, bool) {
		tv := p.info.TypeOf(e)
		if tv == nil {
			return "", false
		}
		if _, ok := tv.Underlying().(*types.Interface); ok {
			return "", false
		}
		n := named(tv)
		if n == nil || n.Obj().Pkg() == nil {
			return "", false
		}
		ip := n.Obj().Pkg().Path()
		return tv.String(), ip == corePath || ip == gkrPath
	}
	for _, p := range m.order {
		if !within(p.dir, "sip") && !within(p.dir, "cmd") && !within(p.dir, "examples") && !within(p.dir, "internal/kvstore") {
			continue
		}
		inspect(p.files, func(_ *ast.File, _ *ast.FuncDecl, n ast.Node) {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return // the x.(type) of a type switch
				}
				if name, ok := concrete(p, n.Type); ok {
					fs.add(n.Pos(), "asserts the concrete verifier type %s; read the result with engine.AnswerOf", name)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if name, ok := concrete(p, e); ok {
							fs.add(e.Pos(), "a type switch lists the concrete verifier type %s; read the result with engine.AnswerOf", name)
						}
					}
				}
			}
		})
		if !slices.ContainsFunc(streamingClients, func(dir string) bool { return within(p.dir, dir) }) {
			continue
		}
		vs := session(p, "VerifierSession")
		uses(p, func(_ *ast.File, _ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			fn, ok := obj.(*types.Func)
			if !ok || isFunc(fn, enginePath, "NewStreamVerifier") || fn.Name() == "Spend" && recvName(fn) == "Ticket" && fn.Pkg().Path() == enginePath {
				return
			}
			res := fn.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if implements(res.At(i).Type(), vs) {
					fs.add(id.Pos(), "a streaming client builds a verifier with %s; draw an engine.Ticket before the stream and Spend it", fn.Name())
					return
				}
			}
		})
	}
	return fs.sorted()
}

// codecSeams: the frame codec internal/wire/frames has two audiences, the
// endpoints under internal/wire/... and the intermediary internal/shard;
// no other file, test or not, imports it (everything else speaks through
// wire.Client and wire.Server). internal/conformance is test support: no
// non-test file imports it.
func codecSeams(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	for _, p := range m.order {
		for _, f := range slices.Concat(p.files, p.tests) {
			test := strings.HasSuffix(m.name(f), "_test.go")
			for _, imp := range f.Imports {
				ip := importPath(imp)
				if within(ip, framesPath) && !within(p.dir, "internal/wire") && !within(p.dir, "internal/shard") {
					fs.add(imp.Pos(), "imports %s; the frame codec is internal to internal/wire/... and internal/shard, use wire.Client and wire.Server", ip)
				}
				if within(ip, confPath) && !test {
					fs.add(imp.Pos(), "a non-test file imports %s, which is test support", ip)
				}
			}
		}
	}
	return fs.sorted()
}

// proverInput: every prover is built from the aggregated table, so no
// type that implements core.ProverSession has an Observe method, in
// non-test code or in a test file (where a method named Observe on a
// type whose name ends in Prover, or whose package gives it Open and
// Step, is held to the same rule). The one-round baseline internal/ccm
// still observes the stream: a NewProver that takes no table is used
// only in internal/ccm and internal/harness, which times that baseline.
func proverInput(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	ccmOK := func(dir string) bool { return within(dir, "internal/ccm") || within(dir, "internal/harness") }
	for _, p := range m.order {
		ps := session(p, "ProverSession")
		for _, tn := range typeNames(p) {
			if !implements(tn.Type(), ps) {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, tn.Pkg(), "Observe"); obj != nil {
				fs.add(obj.Pos(), "the prover session %s has Observe; build provers from the aggregated table", tn.Name())
			}
		}
		if !ccmOK(p.dir) {
			uses(p, func(_ *ast.File, _ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
				if observeFed(obj) {
					fs.add(id.Pos(), "an Observe-fed NewProver outside internal/ccm and internal/harness")
				}
			})
			// A NewProver() call the type checker could not resolve is
			// held to the same rule by its shape.
			inspect(p.files, func(_ *ast.File, _ *ast.FuncDecl, n ast.Node) {
				if sel := noArgNewProver(n); sel != nil && p.info.Uses[sel.Sel] == nil {
					fs.add(n.Pos(), "an Observe-fed NewProver() outside internal/ccm and internal/harness")
				}
			})
		}
		methods := testMethods(p)
		for _, f := range p.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					r := declRecv(n)
					if n.Name.Name != "Observe" || r == "" {
						return true
					}
					shaped := slices.Contains(methods[r], "Open") && slices.Contains(methods[r], "Step")
					if p.types != nil {
						if tn, ok := p.types.Scope().Lookup(r).(*types.TypeName); ok && implements(tn.Type(), ps) {
							shaped = true
						}
					}
					if shaped || strings.HasSuffix(r, "Prover") {
						fs.add(n.Pos(), "a test gives the prover %s an Observe method; build provers from the aggregated table", r)
					}
				case *ast.CallExpr:
					if noArgNewProver(n) != nil && !ccmOK(p.dir) {
						fs.add(n.Pos(), "a test calls an Observe-fed NewProver() outside internal/ccm and internal/harness")
					}
				}
				return true
			})
		}
	}
	return fs.sorted()
}

// testFunc reports whether name is a Test, Benchmark, Fuzz or Example
// function's.
func testFunc(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// observeFed reports whether obj is a NewProver that takes no table: the
// constructor of a prover that observes the stream.
func observeFed(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "NewProver" && fn.Type().(*types.Signature).Params().Len() == 0
}

// noArgNewProver returns the selector of n when n is a call x.NewProver().
func noArgNewProver(n ast.Node) *ast.SelectorExpr {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewProver" {
		return nil
	}
	return sel
}

// gkrAPI is internal/gkr's exported API: one protocol, one session per
// side, and their constructors. There is no low-level Verifier/Prover
// state machine, exported step API or second local driver beneath the
// sessions (core.Run drives them), and no package-own rejection
// sentinel.
var gkrAPI = []string{
	"New", "NewProtocolFor",
	"Protocol", "Protocol.C", "Protocol.F", "Protocol.InputFromCounts", "Protocol.NewProverSession",
	"Protocol.NewVerifierSession", "Protocol.Wiring",
	"ProverSession", "ProverSession.Open", "ProverSession.Step",
	"VerifierSession", "VerifierSession.Begin", "VerifierSession.Observe",
	"VerifierSession.Outputs", "VerifierSession.SpaceWords", "VerifierSession.Step",
}

// gkrSessions: internal/gkr is one session per side. Its exported API is
// exactly gkrAPI. Its one rejection path is reject: no other function of
// the package names core.ErrRejected. Its test files declare no exported
// name but Test, Benchmark, Fuzz and Example functions, and no exported
// method but the methods of core's session interfaces, so no state
// machine or step API grows back on the test side either.
func gkrSessions(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	p := m.pkgs[gkrPath]
	if p == nil || len(p.files) == 0 {
		t.Fatal("archtest: internal/gkr is gone")
	}
	exactly(fs, "internal/gkr's exported API", exported(p.files), gkrAPI, p.files[0].Package)
	uses(p, func(_ *ast.File, decl *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == corePath && v.Name() == "ErrRejected" {
			if decl == nil || decl.Recv != nil || decl.Name.Name != "reject" {
				fs.add(id.Pos(), "names core.ErrRejected outside reject; gkr has one rejection path")
			}
		}
	})
	var sessionMethods []string
	for _, name := range []string{"ProverSession", "VerifierSession"} {
		if it := session(p, name); it != nil {
			for i := 0; i < it.NumMethods(); i++ {
				sessionMethods = append(sessionMethods, it.Method(i).Name())
			}
		}
	}
	for _, f := range p.tests {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if !ast.IsExported(name) {
					continue
				}
				if d.Recv != nil {
					if !slices.Contains(sessionMethods, name) {
						fs.add(d.Pos(), "a gkr test declares the method %s.%s; the sessions' Begin/Step are the one entry", declRecv(d), name)
					}
					continue
				}
				if !testFunc(name) {
					fs.add(d.Pos(), "a gkr test declares the exported function %s; drive the sessions through core.Run", name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							fs.add(s.Pos(), "a gkr test declares the exported type %s; the sessions are the protocol", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								fs.add(n.Pos(), "a gkr test declares the exported name %s", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return fs.sorted()
}

// splitAPI is the split session's exported API: what
// internal/core/partial.go exports, and every other exported name of
// internal/core that says Split or Partial. It is slice owners' partial
// provers and the one SplitProver that folds them, with no aggregator
// state machine beneath it.
var splitAPI = []string{
	"Fk.NewPartialProverFromTable", "NewSplitProver",
	"PartialProver", "PartialProver.Open", "PartialProver.Step",
	"ErrSplitVersion", "RangeSum.NewPartialProverFromTable",
	"SliceError", "SliceError.Error", "SliceError.Reason", "SliceError.Slice",
	"SplitOwner", "SplitOwner.Challenge", "SplitOwner.Finish", "SplitOwner.Msg",
	"SplitProver", "SplitProver.Close", "SplitProver.Open", "SplitProver.Step", "SplitProver.Version",
}

// proverSessions are the non-test types outside internal/core that
// implement core.ProverSession: GKR's session, the server's lazy
// snapshot opener and the harness's timing wrapper. testSessionTypes are
// the test files' types with Open and Step methods.
var (
	proverSessions   = []string{"internal/gkr.ProverSession", "internal/harness.timedProver", "internal/wire.snapshotProver"}
	testSessionTypes = []string{"internal/core.recordingProver", "internal/engine.flatSession", "internal/gkr.recorder"}
)

// splitSession: a split dataset's prover is core.SplitProver, one session
// that core.Run, wire.Mux and engine.RecordProof drive directly. Its
// exported API is exactly splitAPI, and core's test files declare no
// exported Split or Partial name but test functions. Outside
// internal/core the prover sessions are exactly proverSessions, so no
// router adapter grows around the split session, and the test files'
// session-shaped types are exactly testSessionTypes, so no hand-written
// test loop does either.
func splitSession(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	core := m.pkgs[corePath]
	api := map[string]token.Pos{}
	var partial token.Pos
	for _, f := range core.files {
		if m.name(f) == "internal/core/partial.go" {
			partial = f.Package
		}
	}
	if !partial.IsValid() {
		t.Fatal("archtest: internal/core/partial.go is gone")
	}
	for name, pos := range exported(core.files) {
		if m.fset.Position(pos).Filename == "internal/core/partial.go" || strings.Contains(name, "Split") || strings.Contains(name, "Partial") {
			api[name] = pos
		}
	}
	exactly(fs, "the split session's API", api, splitAPI, partial)
	for name, pos := range exported(core.tests) {
		if (strings.Contains(name, "Split") || strings.Contains(name, "Partial")) && !testFunc(name) {
			fs.add(pos, "a core test declares %s beside the split session", name)
		}
	}

	got := map[string]token.Pos{}
	for _, p := range m.order {
		if p.path == corePath {
			continue
		}
		ps := session(p, "ProverSession")
		for _, tn := range typeNames(p) {
			if implements(tn.Type(), ps) {
				got[p.dir+"."+tn.Name()] = tn.Pos()
			}
		}
	}
	exactly(fs, "the prover sessions outside internal/core", got, proverSessions, partial)
	exactly(fs, "the test files' prover sessions", testSessions(m), testSessionTypes, partial)
	return fs.sorted()
}

// mentions reports whether t is, points to, or is a slice, array, map,
// channel, tuple or signature holding the named type ip.name.
func mentions(t types.Type, ip, name string) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		return t.Obj().Pkg() != nil && t.Obj().Pkg().Path() == ip && t.Obj().Name() == name
	case *types.Pointer:
		return mentions(t.Elem(), ip, name)
	case *types.Slice:
		return mentions(t.Elem(), ip, name)
	case *types.Array:
		return mentions(t.Elem(), ip, name)
	case *types.Map:
		return mentions(t.Key(), ip, name) || mentions(t.Elem(), ip, name)
	case *types.Chan:
		return mentions(t.Elem(), ip, name)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if mentions(t.At(i).Type(), ip, name) {
				return true
			}
		}
	case *types.Signature:
		return mentions(t.Params(), ip, name) || mentions(t.Results(), ip, name) ||
			t.Recv() != nil && mentions(t.Recv().Type(), ip, name)
	}
	return false
}

// proverFuncs lists the functions and methods of package sumcheck whose
// signature takes or returns a *sumcheck.Prover, or that are its
// methods: the one prover constructor set (NewProver, NewPartialProver,
// and NewPairsProver, which takes packed live pairs — a split
// conversation's tail and its collapse — over newProver's shared set-up),
// the one dense message walk (message, messageRange) and fold walk
// (fold) beside the sparse pair, and the prover's methods. The one
// verifier constructor is NewVerifier.
var proverFuncs = []string{
	"NewPairsProver", "NewPartialProver", "NewProver",
	"Prover.Fold", "Prover.Leaves", "Prover.Pairs", "Prover.Round", "Prover.RoundMessage",
	"Prover.addZeros", "Prover.foldSparse", "Prover.fuseKind", "Prover.scatter", "Prover.sparseMessage",
	"fold", "message", "messageRange", "newProver",
}

// fkProvers are core.Fk's prover constructors: one pair, whole table and
// slice, both over a sumcheck.Counts.
var fkProvers = []string{"Fk.NewPartialProverFromTable", "Fk.NewProverFromTable"}

// sumcheckShape: sumcheck.Table is the one table type of the sum-check
// prover, and a flat table is one chunk (sumcheck.Flat). The functions
// and methods of package sumcheck that handle a *Prover are exactly
// proverFuncs, so no chunked fork of the constructors or of the message
// and fold walks grows back; NewVerifier is its one function returning a
// *Verifier; and sumcheck's test files declare no method on Prover.
// core.Fk's prover constructors are exactly fkProvers.
func sumcheckShape(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	p := m.pkgs[sumcheckPath]
	got := map[string]token.Pos{}
	for _, obj := range p.info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !mentions(fn.Type(), sumcheckPath, "Prover") {
			continue
		}
		name := fn.Name()
		if r := recvName(fn); r != "" {
			name = r + "." + name
		}
		got[name] = fn.Pos()
	}
	exactly(fs, "sumcheck's prover functions", got, proverFuncs, p.files[0].Package)
	got = map[string]token.Pos{}
	for _, obj := range p.info.Defs {
		if fn, ok := obj.(*types.Func); ok && recvName(fn) == "" && mentions(fn.Type().(*types.Signature).Results(), sumcheckPath, "Verifier") {
			got[fn.Name()] = fn.Pos()
		}
	}
	exactly(fs, "sumcheck's verifier constructors", got, []string{"NewVerifier"}, p.files[0].Package)
	for _, f := range p.tests {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && declRecv(fd) == "Prover" {
				fs.add(fd.Pos(), "a sumcheck test declares the prover method %s", fd.Name.Name)
			}
		}
	}
	core := m.pkgs[corePath]
	ps := session(core, "ProverSession")
	got = map[string]token.Pos{}
	for _, obj := range core.info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || recvName(fn) != "Fk" {
			continue
		}
		res := fn.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			if implements(res.At(i).Type(), ps) {
				got["Fk."+fn.Name()] = fn.Pos()
				break
			}
		}
	}
	exactly(fs, "core.Fk's prover constructors", got, fkProvers, core.files[0].Package)
	return fs.sorted()
}

// oneSchedule: a posted proof is served for SELF-JOIN SIZE alone,
// recorded against the sum-check verifier's challenge schedule. The one
// method named Challenges in the module, test files included, is
// (*core.scVerifier).Challenges in internal/core/halves.go.
func oneSchedule(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	n := 0
	for _, p := range m.order {
		for _, f := range slices.Concat(p.files, p.tests) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "Challenges" {
					continue
				}
				if m.name(f) == "internal/core/halves.go" && declRecv(fd) == "scVerifier" {
					n++
					continue
				}
				fs.add(fd.Pos(), "%s.Challenges is a second challenge schedule; only SELF-JOIN SIZE is posted (engine.CheckPosted)", declRecv(fd))
			}
		}
	}
	if n != 1 {
		fs.add(m.pkgs[corePath].files[0].Package, "scVerifier.Challenges is gone; the posted proof records its schedule")
	}
	return fs.sorted()
}

// holdsElems reports whether t holds a slice or array of field.Elem,
// directly or through pointers, maps, channels and unnamed structs, or
// is a generic type instantiated with field.Elem (a sumcheck.Table of
// elements).
func holdsElems(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		args := t.TypeArgs()
		for i := 0; i < args.Len(); i++ {
			if isNamed(args.At(i), fieldPath, "Elem") || holdsElems(args.At(i)) {
				return true
			}
		}
	case *types.Pointer:
		return holdsElems(t.Elem())
	case *types.Slice:
		return isNamed(t.Elem(), fieldPath, "Elem") || holdsElems(t.Elem())
	case *types.Array:
		return isNamed(t.Elem(), fieldPath, "Elem") || holdsElems(t.Elem())
	case *types.Map:
		return holdsElems(t.Key()) || holdsElems(t.Elem())
	case *types.Chan:
		return holdsElems(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsElems(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// noFieldImage: the engine stores counts only, and they are every
// prover's one input. No struct field of internal/engine's non-test code,
// and no result of its functions, holds a column of field.Elem, except
// Answer.Outputs, a CIRCUIT query's verified output vector.
func noFieldImage(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	p := m.pkgs[enginePath]
	for id, obj := range p.info.Defs {
		switch obj := obj.(type) {
		case *types.Var:
			if obj.IsField() && holdsElems(obj.Type()) && !(id.Name == "Outputs" && fieldOf(p, id) == "Answer") {
				fs.add(id.Pos(), "the field %s holds field elements; the engine stores counts only", id.Name)
			}
		case *types.Func:
			res := obj.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if holdsElems(res.At(i).Type()) {
					fs.add(id.Pos(), "%s returns field elements; the provers read the chunks' counts (sumcheck.Counts)", id.Name)
					break
				}
			}
		}
	}
	return fs.sorted()
}

// fanOutDirs are the packages whose provers fan out over
// internal/parallel: the sites where two workers pay (DESIGN's "Parallel
// prover engine" lists each with its ratio).
var fanOutDirs = []string{"internal/sumcheck", "internal/hashtree", "internal/gkr", "internal/ccm", "internal/engine"}

// fanOutSites: only the fanOutDirs import internal/parallel, in test
// files or not, and the worker count is a prover argument: no type of
// internal/core, internal/gkr or internal/ccm has a Workers field or a
// SetWorkers method, declared or promoted, so no protocol description
// the verifiers share carries one.
func fanOutSites(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	for _, p := range m.order {
		if p.path == parallelPath || slices.ContainsFunc(fanOutDirs, func(d string) bool { return within(p.dir, d) }) {
			continue
		}
		for _, f := range slices.Concat(p.files, p.tests) {
			for _, imp := range f.Imports {
				if importPath(imp) == parallelPath {
					fs.add(imp.Pos(), "imports internal/parallel outside %s; a fan-out that two workers do not speed up goes", strings.Join(fanOutDirs, ", "))
				}
			}
		}
	}
	for _, p := range m.order {
		if !within(p.dir, "internal/core") && !within(p.dir, "internal/gkr") && !within(p.dir, "internal/ccm") {
			continue
		}
		for _, tn := range typeNames(p) {
			for _, name := range []string{"Workers", "SetWorkers"} {
				if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, tn.Pkg(), name); obj != nil {
					fs.add(tn.Pos(), "%s.%s has %s; pass the worker count to the prover constructor instead", p.dir, tn.Name(), name)
				}
			}
		}
	}
	return fs.sorted()
}

// fieldOf returns the name of the package-level struct type that declares
// the field id, or "".
func fieldOf(p *pkg, id *ast.Ident) string {
	for _, tn := range typeNames(p) {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Pos() == id.Pos() {
				return tn.Name()
			}
		}
	}
	return ""
}

// testOnly lists the exported package-level functions under internal/
// that no non-test code uses, by package directory and name, each with
// the reason it stays exported.
var testOnly = map[string]string{
	"internal/core.NewInnerProduct":        "the paper's §3.2 two-stream protocol: library-only, as a dataset is one stream (DESIGN.md)",
	"internal/core.NewInverseDistribution": "the paper's §6.2 protocol beside F0 and Fmax: library-only, no query kind serves it",
	"internal/lde.EvalDense":               "the dense-table oracle the lde and sumcheck tests check streaming evaluation and provers against",
	"internal/stream.DistinctKV":           "a key-value workload generator the tests of several packages share",
	"internal/stream.KVUpdates":            "turns DistinctKV's pairs into updates for the tests of several packages",
	"internal/stream.SumDeltas":            "the Σδ oracle the tests of several packages check provers' thresholds with",
	"internal/wire/frames.EncodeMsg":       "the message encoding the wire and shard tests forge frames with",
}

// testOnlyMethods lists the exported methods under internal/ that no
// non-test code uses, by package directory, receiver type and name, each
// with the reason it stays exported.
var testOnlyMethods = map[string]string{
	"internal/core.InnerProduct.NewProverFromTables": "the paper's §3.2 two-stream protocol: library-only, no query kind serves it (testOnly's NewInnerProduct)",
	"internal/core.InnerProduct.NewVerifier":         "the §3.2 protocol's verifier: two streams, so no summary family or kind row draws it",
	"internal/core.InnerProductProver.Open":          "the §3.2 prover's session opening: core.Run calls it in the protocol's tests",
	"internal/core.InnerProductVerifier.Begin":       "the §3.2 verifier's session opening: core.Run calls it in the protocol's tests",
	"internal/core.InnerProductVerifier.ObserveA":    "feeds the §3.2 verifier's first stream",
	"internal/core.InnerProductVerifier.ObserveB":    "feeds the §3.2 verifier's second stream",
	"internal/shard.Router.SetTable":                 "conformance's restart cells re-address a restarted shard with it",
	"internal/shard.Router.Table":                    "conformance's restart cells read the table they re-address",
	"internal/sumcheck.LivePairs.Indices":            "the sumcheck tests check a live-pair scan's order and contents with it",
	"internal/sumcheck.LivePairs.Len":                "the sumcheck tests check a live-pair scan's size with it",
	"internal/sumcheck.LivePairs.Sparse":             "the sumcheck tests check which form a live-pair scan took with it",
}

// testOnlyExport: every exported package-level function and every
// exported method under internal/ has a non-test use somewhere in the
// module (in its own package too, but not in its own body), or is listed
// in testOnly or testOnlyMethods with the reason it stays exported; a
// function only tests call belongs in the test file that uses it, and a
// method only its own package's tests call goes (they read the field
// instead). A method is also used when non-test code converts a value
// whose type has it to an interface that declares it, or to an interface
// and then asserts that one to an interface that declares it (see
// ifaceUses); when it is the error protocol's Unwrap; or when sip
// re-exports its type by alias (library API). internal/conformance,
// which exists for tests, is exempt. A listed name has no non-test use,
// and every listed name is declared.
func testOnlyExport(t *testing.T, m *module) []string {
	fs := &findings{m: m}
	used := map[string]token.Pos{} // a use of each used name
	for _, p := range m.order {
		uses(p, func(_ *ast.File, decl *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
				return // an interface's method: see interfaceMethods
			}
			recv := recvName(fn.Origin())
			if decl != nil && declRecv(decl) == recv && decl.Name.Name == fn.Name() && fn.Pkg().Path() == p.path {
				return // recursion is no use
			}
			used[methodKey(strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/"), recv, fn.Name())] = id.Pos()
		})
	}
	for key, at := range ifaceUses(m) {
		if _, ok := used[key]; !ok {
			used[key] = at
		}
	}
	library := sipAliased(m)
	declared := map[string]bool{}
	for _, p := range m.order {
		if !within(p.dir, "internal") || within(p.dir, "internal/conformance") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				recv := declRecv(fd)
				key := methodKey(p.dir, recv, fd.Name.Name)
				declared[key] = true
				list, listName, what := testOnly, "testOnly", "exported, but only tests call it; move it into the test file that uses it"
				at, isUsed := used[key]
				if recv != "" {
					list, listName, what = testOnlyMethods, "testOnlyMethods", "an exported method only tests call; delete it if only its own package's tests do"
					if !isUsed && (library[p.dir+"."+recv] || errorUnwrap(p.info.Defs[fd.Name])) {
						at, isUsed = fd.Name.Pos(), true
					}
				}
				_, listed := list[key]
				switch {
				case !isUsed && !listed:
					fs.add(fd.Name.Pos(), "%s is %s, or list it in %s with a reason", key, what, listName)
				case isUsed && listed:
					fs.add(at, "%s is listed in %s, but non-test code uses it; drop it from the list", key, listName)
				}
			}
		}
	}
	for listName, list := range map[string]map[string]string{"testOnly": testOnly, "testOnlyMethods": testOnlyMethods} {
		for key := range list {
			if !declared[key] {
				fs.add(m.pkgs[modulePath+"/internal/archtest"].tests[0].Package, "%s lists %s, which is not declared; drop it from the list", listName, key)
			}
		}
	}
	return fs.sorted()
}

// methodKey names a function "dir.Name" and a method "dir.Recv.Name".
func methodKey(dir, recv, name string) string {
	if recv == "" {
		return dir + "." + name
	}
	return dir + "." + recv + "." + name
}

// errorUnwrap reports whether obj is an Unwrap method of the error
// protocol, which errors.Is and errors.As call through an interface of
// the standard library's own.
func errorUnwrap(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Unwrap" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1
}

// ifaceUses returns the methods, by methodKey with a position that
// reaches each, that non-test code calls through an interface. At every
// site where it converts a value of a non-interface type V to an
// interface type I — an assignment or a typed declaration, a call's
// argument (append's included), a return, a composite literal's element
// or key, a send, a map index, an explicit conversion, a type argument
// against its constraint — each method I declares reaches the method of
// V that types.LookupFieldOrMethod selects. An interface non-test code
// asserts to (x.(I) or a type switch case) reaches, in the same way, the
// methods of every V some site converts that implements it. A
// conversion to the blank identifier is a compile-time assertion, not a
// use.
func ifaceUses(m *module) map[string]token.Pos {
	type site struct {
		it *types.Interface
		at token.Pos
	}
	out := map[string]token.Pos{}
	reach := func(v types.Type, it *types.Interface, at token.Pos) {
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(v, true, im.Pkg(), im.Name())
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			key := methodKey(strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/"), recvName(fn.Origin()), fn.Name())
			if _, ok := out[key]; !ok {
				out[key] = at
			}
		}
	}
	converted := map[string]types.Type{} // every V a site converts, by type string
	var asserted []site
	for _, p := range m.order {
		conversions(p, func(v types.Type, it *types.Interface, at token.Pos) {
			converted[types.TypeString(v, nil)] = v
			reach(v, it, at)
		}, func(it *types.Interface, at token.Pos) {
			asserted = append(asserted, site{it, at})
		})
	}
	for _, a := range asserted {
		for _, v := range converted {
			if types.Implements(v, a.it) {
				reach(v, a.it, a.at)
			}
		}
	}
	return out
}

// conversions walks p's non-test files, calling conv at each site where
// a value of non-interface type v becomes a value of an interface type
// (see ifaceUses) and assert at each interface type a type assertion or
// a type switch case names.
func conversions(p *pkg, conv func(v types.Type, it *types.Interface, at token.Pos), assert func(it *types.Interface, at token.Pos)) {
	info := p.info
	toType := func(target, v types.Type, at token.Pos) {
		if target == nil || v == nil || types.IsInterface(v) {
			return
		}
		if b, ok := v.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			return // nil or an untyped constant: no methods
		}
		if it, ok := target.Underlying().(*types.Interface); ok {
			conv(v, it, at)
		}
	}
	to := func(target types.Type, e ast.Expr) { toType(target, info.TypeOf(e), e.Pos()) }
	// assign converts vals to the targets target(0), target(1), …; a
	// single multi-valued call spreads its results. A nil target is no
	// conversion.
	assign := func(target func(i int) types.Type, vals []ast.Expr) {
		if len(vals) == 1 {
			if tup, ok := info.TypeOf(vals[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len(); i++ {
					toType(target(i), tup.At(i).Type(), vals[0].Pos())
				}
				return
			}
		}
		for i, e := range vals {
			to(target(i), e)
		}
	}
	notBlank := func(e ast.Expr) types.Type {
		if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
			return nil
		}
		return info.TypeOf(e)
	}
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch t := info.Uses[id].Type().(type) {
		case *types.Signature:
			tparams = t.TypeParams()
		case *types.Named:
			tparams = t.TypeParams()
		}
		for i := 0; tparams != nil && i < inst.TypeArgs.Len(); i++ {
			toType(tparams.At(i).Constraint(), inst.TypeArgs.At(i), id.Pos())
		}
	}
	var walk func(root ast.Node, sig *types.Signature)
	walk = func(root ast.Node, sig *types.Signature) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, info.Defs[n.Name].Type().(*types.Signature))
				}
				return false
			case *ast.FuncLit:
				walk(n.Body, info.TypeOf(n).(*types.Signature))
				return false
			case *ast.AssignStmt:
				assign(func(i int) types.Type { return notBlank(n.Lhs[i]) }, n.Rhs)
			case *ast.ValueSpec:
				if n.Type != nil {
					assign(func(i int) types.Type { return notBlank(n.Names[i]) }, n.Values)
				}
			case *ast.ReturnStmt:
				res := sig.Results()
				assign(func(i int) types.Type { return res.At(i).Type() }, n.Results)
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					to(ch.Elem(), n.Value)
				}
			case *ast.IndexExpr:
				if mt, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
					to(mt.Key(), n.Index)
				}
			case *ast.CallExpr:
				callArgs(info, n, to, assign)
			case *ast.CompositeLit:
				compositeLit(info, n, to)
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					if it, ok := info.TypeOf(n.Type).Underlying().(*types.Interface); ok {
						assert(it, n.Pos())
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if it, ok := info.TypeOf(e).Underlying().(*types.Interface); ok {
							assert(it, e.Pos())
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		walk(f, nil)
	}
}

// callArgs converts a call's arguments to its parameters: an explicit
// conversion's operand to its type, append's elements to the slice's
// element type, and a function's arguments to its parameters, the
// variadic tail to the element type unless spread with "...".
func callArgs(info *types.Info, n *ast.CallExpr, to func(types.Type, ast.Expr), assign func(func(int) types.Type, []ast.Expr)) {
	tv := info.Types[n.Fun]
	switch {
	case tv.IsType():
		if len(n.Args) == 1 {
			to(tv.Type, n.Args[0])
		}
	case tv.IsBuiltin():
		id, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || n.Ellipsis.IsValid() {
			return
		}
		if s, ok := info.TypeOf(n).Underlying().(*types.Slice); ok {
			for _, a := range n.Args[1:] {
				to(s.Elem(), a)
			}
		}
	default:
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		assign(func(i int) types.Type {
			if last := params.Len() - 1; sig.Variadic() && i >= last {
				if n.Ellipsis.IsValid() {
					return params.At(last).Type()
				}
				return params.At(last).Type().Underlying().(*types.Slice).Elem()
			}
			return params.At(i).Type()
		}, n.Args)
	}
}

// compositeLit converts a composite literal's elements to their field,
// element or key types.
func compositeLit(info *types.Info, n *ast.CompositeLit, to func(types.Type, ast.Expr)) {
	t := info.TypeOf(n)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range n.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		val := e
		if keyed {
			val = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if fld, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					to(fld.Type(), val)
				}
			} else if i < u.NumFields() {
				to(u.Field(i).Type(), val)
			}
		case *types.Slice:
			to(u.Elem(), val)
		case *types.Array:
			to(u.Elem(), val)
		case *types.Map:
			if keyed {
				to(u.Key(), kv.Key)
			}
			to(u.Elem(), val)
		}
	}
}

// sipAliased returns the types sip re-exports by alias, as "dir.Type":
// their methods are the library's API.
func sipAliased(m *module) map[string]bool {
	out := map[string]bool{}
	p := m.pkgs[modulePath+"/sip"]
	if p == nil {
		return out
	}
	for _, obj := range p.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() || tn.Parent() != p.types.Scope() {
			continue
		}
		if n := named(tn.Type()); n != nil && n.Obj().Pkg() != nil {
			out[strings.TrimPrefix(n.Obj().Pkg().Path(), modulePath+"/")+"."+n.Obj().Name()] = true
		}
	}
	return out
}
