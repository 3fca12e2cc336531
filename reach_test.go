package scgnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed names the top-level declarations that no entry point
// reaches but that stay in product code, each with the reason it stays.
// Keys are "pkg.Name" or "pkg.Type.Method", pkg being the import path. An
// entry that goes stale — its declaration is gone or has become reached —
// fails the test too.
var unreachedAllowed = map[string]string{
	"scgnn/internal/graph.ExtractDBG":            "oracle: the per-pair DBG extraction the one-sweep builders are tested against",
	"scgnn/internal/graph.sortedKeys":            "oracle: ExtractDBG's helper",
	"scgnn/internal/graph.indexOf":               "oracle: ExtractDBG's helper",
	"scgnn/internal/graph.NewUndirected":         "test seam: builds graphs from edge lists in tests",
	"scgnn/internal/simnet.Fabric.LinkBytes":     "test seam: per-link byte counters the traffic tests read",
	"scgnn/internal/simnet.Fabric.LinkMessages":  "test seam: per-link message counters the traffic tests read",
	"scgnn/internal/sched.Scheduler.Ladder":      "test seam: the rung table the scheduler tests index",
	"scgnn/internal/tensor.FromRows":             "test seam: builds matrices from literals in tests",
	"scgnn/internal/tensor.Matrix.Fill":          "test seam: fills matrices in tests",
	"scgnn/internal/tensor.Matrix.Set":           "test seam: sets single elements in tests",
	"scgnn/internal/tensor.Sub":                  "oracle: difference used by gradient checks",
	"scgnn/internal/tensor.Matrix.MaxAbs":        "oracle: largest deviation used by gradient checks",
	"scgnn/internal/tensor.Matrix.FrobeniusNorm": "oracle: norm used by gradient checks",
	"scgnn/internal/tensor.MatMul":               "oracle: allocating product the kernel tests compare with",
	"scgnn/internal/tensor.Matrix.ColSums":       "oracle: allocating column sum the kernel tests compare with",
	"scgnn/internal/pool.SetProcs":               "test seam: sets GOMAXPROCS for one test, which sweeps every pool's width and the cluster's fan-out",
}

// stdInterfaceMethods are the method names of standard-library interfaces a
// value can satisfy without the module naming the method (fmt, sort, io,
// errors).
var stdInterfaceMethods = []string{"Error", "String", "Unwrap", "Len", "Less", "Swap", "Read", "Write", "Close"}

// TestProductCodeIsReached fails when a top-level declaration in non-test Go
// code is reached from no entry point. The roots are every declaration of a
// main package (cmd/*, examples/*, bench/), every exported name of the
// facade and every init function; from them the scan follows name references
// through non-test files only, so code that only its own tests call shows up
// here. An example may import nothing of the module but the facade, so what
// only an example reaches is what the facade reaches: a file under examples/
// that imports an internal package fails the test. A method counts as reached
// when its receiver type is reached and its name is either selected in
// reached code of a package that can see the type, or declared by an
// interface. Every declaration named Validate is kept: it is the invariant
// check tests run on what the code builds.
func TestProductCodeIsReached(t *testing.T) {
	s := scanModule(t)
	for _, imp := range s.pastFacade {
		t.Errorf("%s: an example imports only %q, never the packages behind it", imp, modPath)
	}
	s.run()
	var unreached []string
	for key, ds := range s.decls {
		if d := ds[0]; d.name != "_" && d.name != "Validate" && !s.reached[key] && unreachedAllowed[key] == "" {
			unreached = append(unreached, key+" ("+d.pos+")")
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d top-level declarations are reached from no entry point; delete them, "+
			"or move them into a _test.go file if only tests use them:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	for key := range unreachedAllowed {
		switch {
		case s.decls[key] == nil:
			t.Errorf("allowlist entry %s names no declaration", key)
		case s.reached[key]:
			t.Errorf("allowlist entry %s is reached; remove it from the allowlist", key)
		}
	}
}

// decl is one top-level declaration: a func, a method, or one name of a
// type, var or const spec. Files for different platforms may declare the
// same name; the scan keys a package's declarations by name, so those share
// a key.
type decl struct {
	pkg, recv, name string
	pos             string
	node            ast.Node // what a reached declaration's references are read from
	file            *fileInfo
	root            bool
}

type fileInfo struct {
	pkg     string
	imports map[string]string // local name → module package path
}

type scan struct {
	decls    map[string][]*decl
	methods  map[string][]string        // receiver type key → method keys
	imports  map[string]map[string]bool // package → module packages it imports
	ifaces   map[string]bool            // method names some interface declares
	reached  map[string]bool
	selected map[string]map[string]bool // method name → packages whose reached code selects it
	work     []string
	// pastFacade lists the imports of module packages other than the facade
	// in files under examples/, as "position: path".
	pastFacade []string
}

// modPath is this module's path; bench/ is a module of its own that
// replaces it with this directory.
const modPath = "scgnn"

// scanModule parses every non-test Go file of the module, and every file of
// bench/, and records their top-level declarations.
func scanModule(t *testing.T) *scan {
	t.Helper()
	s := &scan{
		decls:    map[string][]*decl{},
		methods:  map[string][]string{},
		imports:  map[string]map[string]bool{},
		ifaces:   map[string]bool{},
		reached:  map[string]bool{},
		selected: map[string]map[string]bool{},
	}
	for _, m := range stdInterfaceMethods {
		s.ifaces[m] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel := filepath.ToSlash(filepath.Dir(p))
		inBench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		pkg := modPath
		if rel != "." {
			pkg += "/" + rel
		}
		if strings.HasSuffix(p, "_test.go") && !inBench {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.addFile(fset, f, pkg, inBench)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *scan) addFile(fset *token.FileSet, f *ast.File, pkg string, inBench bool) {
	fi := &fileInfo{pkg: pkg, imports: map[string]string{}}
	if s.imports[pkg] == nil {
		s.imports[pkg] = map[string]bool{}
	}
	for _, spec := range f.Imports {
		ip, _ := strconv.Unquote(spec.Path.Value)
		if ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
			continue
		}
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		fi.imports[name] = ip
		s.imports[pkg][ip] = true
		if ip != modPath && strings.HasPrefix(pkg, modPath+"/examples/") {
			s.pastFacade = append(s.pastFacade, fset.Position(spec.Pos()).String()+": "+ip)
		}
	}
	isMain := f.Name.Name == "main" || inBench
	isFacade := pkg == modPath && filepath.Base(fset.Position(f.Pos()).Filename) == "scgnn.go"
	add := func(d *decl) {
		d.pkg, d.file = pkg, fi
		d.root = isMain || (isFacade && ast.IsExported(d.name)) || (d.recv == "" && d.name == "init")
		key := d.pkg + "." + d.name
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
			tkey := d.pkg + "." + d.recv
			if s.decls[key] == nil {
				s.methods[tkey] = append(s.methods[tkey], key)
			}
		}
		if d.recv == "" && (d.name == "init" || d.name == "_") {
			key += "@" + d.pos // one package may declare several
		}
		s.decls[key] = append(s.decls[key], d)
	}
	for _, dd := range f.Decls {
		switch dd := dd.(type) {
		case *ast.FuncDecl:
			d := &decl{name: dd.Name.Name, pos: fset.Position(dd.Pos()).String(), node: dd}
			if dd.Recv != nil {
				d.recv = recvTypeName(dd.Recv.List[0].Type)
			}
			add(d)
		case *ast.GenDecl:
			for _, spec := range dd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add(&decl{name: sp.Name.Name, pos: fset.Position(sp.Pos()).String(), node: sp})
				case *ast.ValueSpec:
					// The names of one spec are one declaration: they share a
					// right-hand side. A const block is one declaration too,
					// so an enumeration stays whole.
					var node ast.Node = sp
					if dd.Tok == token.CONST {
						node = dd
					}
					for _, n := range sp.Names {
						add(&decl{name: n.Name, pos: fset.Position(n.Pos()).String(), node: node})
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, n := range m.Names {
					s.ifaces[n.Name] = true
				}
			}
		}
		return true
	})
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// run marks everything reachable from the roots.
func (s *scan) run() {
	for key, ds := range s.decls {
		for _, d := range ds {
			if d.root {
				s.mark(key)
			}
		}
	}
	for {
		for len(s.work) > 0 {
			key := s.work[len(s.work)-1]
			s.work = s.work[:len(s.work)-1]
			for _, d := range s.decls[key] {
				s.visit(d)
			}
		}
		for tkey, ms := range s.methods {
			if !s.reached[tkey] {
				continue
			}
			for _, mkey := range ms {
				if !s.reached[mkey] && s.methodUsed(s.decls[mkey][0]) {
					s.mark(mkey)
				}
			}
		}
		if len(s.work) == 0 {
			return
		}
	}
}

func (s *scan) mark(key string) {
	if s.decls[key] != nil && !s.reached[key] {
		s.reached[key] = true
		s.work = append(s.work, key)
	}
}

// methodUsed reports whether a method of a reached type is called: its name
// is declared by an interface, or selected in reached code of a package that
// imports the method's package, directly or not.
func (s *scan) methodUsed(d *decl) bool {
	if s.ifaces[d.name] {
		return true
	}
	for q := range s.selected[d.name] {
		if s.sees(q, d.pkg, map[string]bool{}) {
			return true
		}
	}
	return false
}

func (s *scan) sees(from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	seen[from] = true
	for p := range s.imports[from] {
		if !seen[p] && s.sees(p, to, seen) {
			return true
		}
	}
	return false
}

// visit marks what one reached declaration names: a bare identifier is a
// package-level name of its own package, pkg.Name is the imported package's
// declaration, and any other x.Name selects a method or field by name.
func (s *scan) visit(d *decl) {
	fi := d.file
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := fi.imports[id.Name]; ok {
					s.mark(p + "." + x.Sel.Name)
					return false
				}
			}
			if s.selected[x.Sel.Name] == nil {
				s.selected[x.Sel.Name] = map[string]bool{}
			}
			s.selected[x.Sel.Name][fi.pkg] = true
			ast.Inspect(x.X, walk)
			return false
		case *ast.Field:
			// Field, parameter and result names declare; only the type refers.
			ast.Inspect(x.Type, walk)
			return false
		case *ast.FuncDecl:
			// A method's name is not a package-level name.
			if x.Recv != nil {
				ast.Inspect(x.Recv, walk)
			}
			ast.Inspect(x.Type, walk)
			if x.Body != nil {
				ast.Inspect(x.Body, walk)
			}
			return false
		case *ast.Ident:
			s.mark(fi.pkg + "." + x.Name)
		}
		return true
	}
	ast.Inspect(d.node, walk)
	if d.recv != "" {
		s.mark(d.pkg + "." + d.recv)
	}
}
