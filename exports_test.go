package nshd_test

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
	"strings"
	"testing"
)

// testOnlyAllowed names the functions under internal/ that only tests call
// and that stay anyway: references that tests in other packages compare
// against. Each entry says which test reads it.
var testOnlyAllowed = map[string]string{
	"tensor.MatMulAccTSerialInto":      "the serial reference of the column-split products in nn's TestLinearBackwardSplitMatchesSerial and TestConvWeightGradMatchesSerial",
	"hdlearn.Model.DistillUpdateBatch": "the per-batch reference of core's joint loop in TestTrainOnFeaturesMatchesReference",
	"hdlearn.Model.QueryGrad":          "the per-sample reference of core's joint loop in TestTrainOnFeaturesMatchesReference",
	"tensor.Arena.PeakFloats":          "nn's TestTrainingPassesClearPoisonedArena fills the arena's float slab up to it",
	"tensor.Arena.PeakInt32s":          "nn's TestTrainingPassesClearPoisonedArena fills the arena's int32 slab up to it",
}

// TestNoTestOnlyExports fails when a function or method declared in a
// non-test file under internal/ is referenced by no non-test file of the
// module except its own declaration: cmd/, examples/, benchmark/ and nshd.go
// all count as callers. testOnlyFuncs lists the exemptions.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs, err := listPackages(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := testOnlyFuncs(pkgs, "nshd", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Pos, f.What)
	}
}

// TestNoTestOnlyExportsGate runs the gate on testdata/exportgate, a module
// with one function of each kind the gate must pass or flag.
func TestNoTestOnlyExportsGate(t *testing.T) {
	pkgs, err := listPackages(filepath.Join("testdata", "exportgate"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := testOnlyFuncs(pkgs, "gate", map[string]string{
		"lib.Allowed": "compared against in lib's tests",
		"lib.Gone":    "deleted since it was listed",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.What)
	}
	want := []string{
		"gate/cmd/leak imports gate/internal/libtest, a test-only package",
		"lib.Gone is allowed as test-only but is not declared or has a non-test caller",
		"lib.Impl.Planted has no non-test caller",
		"lib.Planted has no non-test caller",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath     string
	Dir            string
	Export         string
	GoFiles        []string
	IgnoredGoFiles []string
}

// listPackages runs `go list -deps -export -json ./...` in dir: every
// package of the module there and everything it imports, with the export
// data of each compiled package.
func listPackages(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// gateFinding is one function that fails the gate, or one broken rule.
type gateFinding struct {
	Pos  token.Position
	What string
}

// testOnlyFuncs type-checks every non-test package of module (the packages
// in pkgs whose import path is module or under it) from source, and returns
// each function or method declared under module/internal/ that no non-test
// file references outside its own declaration. Exempt are:
//
//   - a method that satisfies a method of an interface non-test code uses:
//     error, one it writes as a type, or one that a package of the module
//     declares or imports (fmt.Stringer, http.Handler, nn.Layer);
//   - every method of a type the module's root package aliases (its public
//     API);
//   - the functions of packages whose names end in "test", which only tests
//     may import (a non-test import of one is a finding);
//   - functions that a file the build leaves out on this platform names, such
//     as a _noasm.go twin (scanned by name, not type-checked);
//   - the keys of allowed, "pkg.Func" or "pkg.Type.Method"; a key that is not
//     a test-only function is a finding.
func testOnlyFuncs(pkgs []listedPackage, module string, allowed map[string]string) ([]gateFinding, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	listed := map[string]listedPackage{}
	for _, p := range pkgs {
		if p.ImportPath == module || strings.HasPrefix(p.ImportPath, module+"/") {
			listed[p.ImportPath] = p
		} else {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	type checked struct {
		pkg   *types.Package
		files []*ast.File
	}
	done := map[string]*checked{}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var check func(path string) (*checked, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := listed[path]; !ok {
			return std.Import(path)
		}
		c, err := check(path)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	})
	check = func(path string) (*checked, error) {
		if c := done[path]; c != nil {
			return c, nil
		}
		p := listed[path]
		c := &checked{}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, c.files, info)
		if err != nil {
			return nil, err
		}
		c.pkg = pkg
		done[path] = c
		return c, nil
	}

	paths := make([]string, 0, len(listed))
	for path := range listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var findings []gateFinding
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	ignoredNames := map[string]map[string]bool{} // per package path
	ignoredSels := map[string]bool{}
	for _, path := range paths {
		c, err := check(path)
		if err != nil {
			return nil, err
		}
		for _, f := range c.files {
			for _, spec := range f.Imports {
				dep := strings.Trim(spec.Path.Value, `"`)
				if d := done[dep]; d != nil && strings.HasSuffix(d.pkg.Name(), "test") && !strings.HasSuffix(c.pkg.Name(), "test") {
					findings = append(findings, gateFinding{fset.Position(spec.Pos()), fmt.Sprintf("%s imports %s, a test-only package", path, dep)})
				}
			}
		}
		for _, dep := range c.pkg.Imports() {
			addScope(dep)
		}
		addScope(c.pkg)
		names := map[string]bool{}
		for _, name := range listed[path].IgnoredGoFiles {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(listed[path].Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			declared := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declared[n.Name] = true // a twin's own name calls nothing
				case *ast.SelectorExpr:
					ignoredSels[n.Sel.Name] = true
				case *ast.Ident:
					if !declared[n] {
						names[n.Name] = true
					}
				}
				return true
			})
		}
		ignoredNames[path] = names
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			ifaces[it] = true
		}
	}

	facade := map[*types.TypeName]bool{}
	if root := done[module]; root != nil {
		for _, name := range root.pkg.Scope().Names() {
			if tn, ok := root.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					facade[named.Obj()] = true
				}
			}
		}
	}

	// Every function declared under internal/, with the extent of its
	// declaration, so that recursion does not count as a caller.
	type decl struct {
		key        string
		pos, end   token.Pos
		referenced bool
	}
	decls := map[*types.Func]*decl{}
	for _, path := range paths {
		c := done[path]
		if !strings.HasPrefix(path, module+"/internal/") || strings.HasSuffix(c.pkg.Name(), "test") {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := info.Defs[fd.Name].(*types.Func)
				if !ok || fn.Name() == "init" || fn.Name() == "_" {
					continue
				}
				key := c.pkg.Name() + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					named := t.(*types.Named)
					key = c.pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
					if facade[named.Obj()] || satisfiesInterface(named, fn.Name(), ifaces) {
						continue
					}
				}
				if ignoredNames[path][fn.Name()] || ignoredSels[fn.Name()] {
					continue
				}
				decls[fn] = &decl{key: key, pos: fd.Pos(), end: fd.End()}
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if d := decls[fn.Origin()]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
			d.referenced = true
		}
	}

	listedAllowed := map[string]bool{}
	for fn, d := range decls {
		if d.referenced {
			continue
		}
		if _, ok := allowed[d.key]; ok {
			listedAllowed[d.key] = true
			continue
		}
		findings = append(findings, gateFinding{fset.Position(fn.Pos()), d.key + " has no non-test caller"})
	}
	for key := range allowed {
		if !listedAllowed[key] {
			findings = append(findings, gateFinding{What: key + " is allowed as test-only but is not declared or has a non-test caller"})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].What < findings[j].What })
	return findings, nil
}

// satisfiesInterface reports whether the method name of named (or of a
// pointer to it) is one that one of ifaces asks for.
func satisfiesInterface(named *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
