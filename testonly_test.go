package aergia_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported funcs and methods that no non-test code
// names but that stay, keyed by package directory and name (a method as
// Type.Method), each with the reason it stays. An entry whose declaration is
// gone, or which has gained a non-test user, fails TestNoTestOnlyAPI too.
var testOnlyAllowed = map[string]string{
	// Other packages' tests call these, so no _test.go file can hold them.
	"internal/chaos.Transport.ScheduleCrash": "fl's and comm's tests crash a node at a chosen time",
	"internal/hier.LazyClient.Hydrated":      "fl's tests count the clients a run hydrated",
	"internal/hier.LazyClient.Dehydrations":  "fl's tests count the clients a run dropped",
	"internal/runner.Runner.List":            "cmd/aergiad's tests read the job table as a slice",
	"internal/runner.Store.List":             "cmd/aergia's tests read the store as a slice",
	"internal/sim.Kernel.RunUntil":           "fl's tests stop the virtual clock part way",
	"internal/tensor.NewSerial32":            "fl's tests run the float32 engine",
	"internal/tensor.Equal":                  "dataset's tests compare tensors",
	"internal/tensor.FromSlice":              "nn's tests build tensors from literals",
	"internal/tensor.Sub":                    "dataset's tests take differences of class means",
	"internal/tensor.Tensor.Norm2":           "dataset's tests measure distances between class means",
	"internal/tensor.Tensor.ScaleInPlace":    "dataset's tests average class means",

	// encoding/json and container/heap call these through interfaces.
	"internal/nn.Arch.MarshalJSON":      "encoding/json writes an Arch as its name",
	"internal/dataset.Kind.MarshalJSON": "encoding/json writes a Kind as its name",
	"internal/sim.eventQueue.Less":      "container/heap orders the kernel's events",
	"internal/fl.stepHeap.Less":         "container/heap orders the lanes' due steps",

	// ROADMAP item 16 deletes Ops[T] with the float32 engine; only tests
	// call these methods until then.
	"internal/tensor.Ops.FMA":     "item 16 deletes Ops",
	"internal/tensor.Ops.FromF64": "item 16 deletes Ops",
	"internal/tensor.Ops.ToF64":   "item 16 deletes Ops",
	"internal/tensor.Ops.Eps":     "item 16 deletes Ops",

	// fl's Example_timeline renders with these, and ROADMAP item 27 keeps
	// them as a view of its event model.
	"internal/trace.Log.Lanes":       "the timeline example renders the lanes",
	"internal/trace.Log.FilterRound": "the timeline example picks one round",
}

// TestNoTestOnlyAPI fails when an exported func or method in non-test code
// has no non-test user: such code belongs in a _test.go file, or nowhere.
// It reads the non-test files of this module and of bench/ (a module of
// its own, built from this tree) with go/parser alone. A package-level func
// is used when a file outside its package names it through an import of its
// path, or when its own package names it bare; a method is used when any
// selector names it. Methods match by name alone, so an interface-dispatched
// method (a strategy's Select, a layer's Forward) counts as used wherever the
// interface is called.
func TestNoTestOnlyAPI(t *testing.T) {
	decls, uses := scanAPI(t)
	var unused []string
	for _, d := range decls {
		used := uses[d.use]
		reason, allowed := testOnlyAllowed[d.key]
		switch {
		case !used && !allowed:
			unused = append(unused, d.pos+": "+d.key)
		case used && allowed:
			t.Errorf("%s: %s is allowlisted (%s) but non-test code uses it; drop its entry", d.pos, d.key, reason)
		}
	}
	for key := range testOnlyAllowed {
		if !slices.ContainsFunc(decls, func(d apiDecl) bool { return d.key == key }) {
			t.Errorf("allowlist entry %s names no declaration; drop it", key)
		}
	}
	if len(unused) > 0 {
		slices.Sort(unused)
		t.Errorf("%d exported funcs and methods have no non-test user; move each into a _test.go file, delete it, or allowlist it with a reason:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// apiDecl is one exported func or method: key names it in testOnlyAllowed,
// and use is the key under which scanAPI records a use of it.
type apiDecl struct {
	key, use, pos string
}

// scanAPI parses every non-test Go file of the tree and returns the main
// module's exported funcs and methods, and the set of uses: "<import
// path>.<Name>" for a func and ".<Name>" for a method.
func scanAPI(t *testing.T) ([]apiDecl, map[string]bool) {
	t.Helper()
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("aergia", filepath.ToSlash(filepath.Dir(p)))
		pkgName[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []apiDecl
	uses := map[string]bool{}
	for _, f := range files {
		dir := strings.TrimPrefix(f.pkg, "aergia/")
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.ast.Imports {
			ipath := strings.Trim(spec.Path.Value, `"`)
			local, ok := pkgName[ipath]
			if spec.Name != nil {
				local, ok = spec.Name.Name, true
			}
			if ok {
				imports[local] = ipath
			}
		}

		// Identifiers that name no package-level func: declared names,
		// selected names, struct and interface fields and parameters, and
		// composite-literal keys.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ipath, ok := imports[x.Name]; ok {
						uses[ipath+"."+n.Sel.Name] = true
						return false
					}
				}
				uses["."+n.Sel.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			}
			return true
		})
		for _, decl := range f.ast.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name // a recursive call is no use
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !skip[id] && id.Name != self {
					uses[f.pkg+"."+id.Name] = true
				}
				return true
			})
		}

		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue // its own module: a user, not an API
		}
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			d := apiDecl{
				key: dir + "." + fd.Name.Name,
				use: f.pkg + "." + fd.Name.Name,
				pos: fset.Position(fd.Pos()).String(),
			}
			if fd.Recv != nil {
				d.key = dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				d.use = "." + fd.Name.Name
			}
			decls = append(decls, d)
		}
	}
	return decls, uses
}

// recvType names a receiver's type without its pointer or type parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
