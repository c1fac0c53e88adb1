package distsketch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPublicSurfaceMatchesAPIFile pins the facade's exported identifiers to
// the committed api.txt, so the public surface cannot grow (or lose a name)
// without the change showing up in review as a diff of that file.
func TestPublicSurfaceMatchesAPIFile(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			got[id.Name+" "+kind] = true
		}
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(strings.ToLower(d.Tok.String()), id)
						}
					}
				}
			}
		}
	}

	raw, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Error("api.txt is not sorted")
	}
	want := map[string]bool{}
	for _, line := range lines {
		want[line] = true
	}

	var diff []string
	for name := range got {
		if !want[name] {
			diff = append(diff, "+ "+name+"   (exported by the package, not in api.txt)")
		}
	}
	for name := range want {
		if !got[name] {
			diff = append(diff, "- "+name+"   (in api.txt, no longer exported)")
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("distsketch's exported identifiers differ from api.txt (%d in the package, %d in the file); if the change is intended, edit api.txt to match:\n%s",
			len(got), len(want), strings.Join(diff, "\n"))
	}
}
