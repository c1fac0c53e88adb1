package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedExportsAllowed lists the exported package-level identifiers of
// internal/* that no non-test file references and that stay anyway.
var unusedExportsAllowed = []string{
	// Helpers the tests of live code lean on.
	"core.ExpectedRows",
	"core.KeepAll",
	"linalg.IsOrthonormalColumns",
	"linalg.Rank",
	"matrix.Diag",
	"matrix.SparseFromDenseMatrix",
	// §2.1 lower-bound constructions: their own tests are their only
	// drivers so far; no experiment runs them.
	"lowerbound.CheckRectanglePartition",
	"lowerbound.ColumnSumProtocol",
	"lowerbound.EnumerateSignMatrices",
	"lowerbound.ExactGramProtocol",
	"lowerbound.GlobalParityNonProtocol",
	"lowerbound.HardInstance",
	"lowerbound.HardInstanceRows",
	"lowerbound.HeadlineCosts",
	"lowerbound.SVSLinearWords",
	"lowerbound.SketchSizeWords",
}

// interfaceMethods are method names a standard-library interface calls
// (sort, heap, io, fmt.Stringer, error): a method of that name may have no
// caller in the repository and still be used.
var interfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "String": true, "Error": true,
}

// testOnlyMethods lists the exported methods of internal/* that no non-test
// file calls and that stay anyway, each for the tests named beside it.
var testOnlyMethods = []string{
	"comm.(*Meter).Summary",                     // the per-link report, rendered by comm's tests
	"core.(*QuadraticSampling).Cutoff",          // sampling tests check the threshold α‖A‖F²/s
	"distributed.(*MemNetwork).MailboxCapacity", // TestMailboxBackpressure reads the installed capacity
	"fd.(*WindowSketch).BucketRows",             // window tests check the bucket geometry
	"fd.(*WindowSketch).LiveBuckets",            // window tests check bucket expiry
	"linalg.(*SVD).Reconstruct",                 // Jacobi oracle accuracy tests rebuild the input
	"matrix.(*Dense).EqualApprox",               // the tolerance comparison most tests use
	"matrix.(*Dense).Frob",                      // tests report relative errors in ‖·‖F
	"matrix.(*Dense).RowNorm2",                  // dense-kernel tests
	"matrix.(*Dense).ScaleInPlace",              // dense-kernel tests
	"matrix.(*Dense).ScaleRow",                  // dense-kernel tests
	"matrix.(*Dense).TMulVec",                   // the kernel tests' reference product
	"matrix.(*Sparse).Density",                  // generator tests check the requested density
	"matrix.(*Sparse).TMulVec",                  // sparse-kernel tests check it against dense
	"obs.(*Observer).Registry",                  // obs tests read the counters back
	"obs.(*Observer).Tracer",                    // obs tests read the trace back
	"obs.(*Tracer).Events",                      // trace tests read the recorded events
	"service.(*Server).Tracker",                 // service tests inspect a server's tracker
	"workload.(*DenseSource).Remaining",         // source tests check the cursor
}

// TestNoUnusedInternalExports keeps superseded code from piling up again:
// every exported package-level identifier and every exported method of an
// internal/ package must be referenced by some non-test file outside its
// own declaration (method receivers do not count), or be named in
// unusedExportsAllowed or testOnlyMethods.
func TestNoUnusedInternalExports(t *testing.T) {
	type decl struct{ from, to token.Pos } // positions are unique across files of one FileSet
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		byDir[dir] = append(byDir[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported package-level declarations of internal/<pkg>, keyed "pkg.Name".
	decls := map[string]decl{}
	for dir, files := range byDir {
		if filepath.Dir(dir) != "internal" {
			continue
		}
		pkg := filepath.Base(dir)
		add := func(id *ast.Ident, n ast.Node) {
			if id.IsExported() {
				decls[pkg+"."+id.Name] = decl{n.Pos(), n.End()}
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for dir, files := range byDir {
		own := ""
		if filepath.Dir(dir) == "internal" {
			own = filepath.Base(dir)
		}
		for _, f := range files {
			// Local import name → internal package it stands for.
			imports := map[string]string{}
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(p, "repro/internal/") {
					continue
				}
				pkg := strings.TrimPrefix(p, "repro/internal/")
				name := pkg
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = pkg
			}
			// Identifiers that never name a package-level declaration of this
			// package: method receivers and names, field and parameter names,
			// composite-literal keys, the right side of a selector.
			skip := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						skip[n.Name] = true
						ast.Inspect(n.Recv, func(r ast.Node) bool {
							if id, ok := r.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.Field:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								skip[id] = true
							}
						}
					}
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					// Inside the declaring package a bare identifier is a use,
					// unless it sits in the declaration itself.
					key := own + "." + n.Name
					if d, ok := decls[key]; ok && !skip[n] && !(d.from <= n.Pos() && n.Pos() < d.to) {
						used[key] = true
					}
				}
				return true
			})
		}
	}

	// Exported methods of internal/<pkg>, keyed "pkg.Recv.Name" with Recv
	// "(*T)" for a pointer receiver. Without type information a method
	// counts as used when any non-test file selects its name (x.Name) on
	// something other than an imported package, outside its own
	// declaration; a call through an interface counts the same way.
	methods := map[string]decl{}
	for dir, files := range byDir {
		if filepath.Dir(dir) != "internal" {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !fn.Name.IsExported() || interfaceMethods[fn.Name.Name] {
					continue
				}
				recv := fn.Recv.List[0].Type
				if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver T[E]
					recv = idx.X
				}
				name := ""
				switch r := recv.(type) {
				case *ast.Ident:
					name = r.Name
				case *ast.StarExpr:
					if id, ok := r.X.(*ast.Ident); ok {
						name = "(*" + id.Name + ")"
					} else if idx, ok := r.X.(*ast.IndexExpr); ok {
						name = "(*" + idx.X.(*ast.Ident).Name + ")"
					}
				}
				methods[filepath.Base(dir)+"."+name+"."+fn.Name.Name] = decl{fn.Pos(), fn.End()}
			}
		}
	}
	selected := map[string][]token.Pos{} // method name → positions selecting it
	for _, files := range byDir {
		for _, f := range files {
			imports := map[string]bool{}
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); !ok || !imports[x.Name] {
						selected[sel.Sel.Name] = append(selected[sel.Sel.Name], sel.Sel.Pos())
					}
				}
				return true
			})
		}
	}
	for key, d := range methods {
		for _, pos := range selected[key[strings.LastIndex(key, ".")+1:]] {
			if pos < d.from || pos >= d.to {
				used[key] = true
				break
			}
		}
		decls[key] = d
	}

	allowed := map[string]bool{}
	for _, name := range unusedExportsAllowed {
		allowed[name] = true
	}
	for _, name := range testOnlyMethods {
		allowed[name] = true
	}
	var diff []string
	for name := range decls {
		if !used[name] && !allowed[name] {
			diff = append(diff, "+ "+name+"   (exported, referenced by no non-test file: delete it, unexport it, or allow it)")
		}
	}
	for name := range allowed {
		if _, ok := decls[name]; !ok || used[name] {
			diff = append(diff, "- "+name+"   (allowed as unused, but it is gone or has a caller now: drop it from the list)")
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("unused exported identifiers under internal/ differ from unusedExportsAllowed/testOnlyMethods:\n%s", strings.Join(diff, "\n"))
	}
}

// TestPaperHarnessReadsNoClock keeps the paper harness deterministic: no
// non-test file of internal/bench or cmd/sketchbench may import time or
// runtime. A question about how fast something runs is a workload or metric
// of benchmark/, in a benchmark-only PR.
func TestPaperHarnessReadsNoClock(t *testing.T) {
	for _, dir := range []string{"internal/bench", "cmd/sketchbench"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); p == "time" || p == "runtime" {
					t.Errorf("%s imports %q: the paper harness records words and error only", path, p)
				}
			}
		}
	}
}
