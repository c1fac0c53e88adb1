package distsketch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/distsketch"
)

// facadeTypes holds every exported type of the facade, so the test can
// reflect over the fields of its structs. The test fails on a type missing
// here, so the table cannot fall behind the package.
var facadeTypes = map[string]reflect.Type{
	"Adaptive":            reflect.TypeFor[distsketch.Adaptive](),
	"AdaptiveParams":      reflect.TypeFor[distsketch.AdaptiveParams](),
	"BWZ":                 reflect.TypeFor[distsketch.BWZ](),
	"Config":              reflect.TypeFor[distsketch.Config](),
	"CoordinatedProduct":  reflect.TypeFor[distsketch.CoordinatedProduct](),
	"Dense":               reflect.TypeFor[distsketch.Dense](),
	"Env":                 reflect.TypeFor[distsketch.Env](),
	"Estimand":            reflect.TypeFor[distsketch.Estimand](),
	"FDMerge":             reflect.TypeFor[distsketch.FDMerge](),
	"FaultNetwork":        reflect.TypeFor[distsketch.FaultNetwork](),
	"FaultPlan":           reflect.TypeFor[distsketch.FaultPlan](),
	"Input":               reflect.TypeFor[distsketch.Input](),
	"LowRankExact":        reflect.TypeFor[distsketch.LowRankExact](),
	"MemNetwork":          reflect.TypeFor[distsketch.MemNetwork](),
	"MemOption":           reflect.TypeFor[distsketch.MemOption](),
	"Message":             reflect.TypeFor[distsketch.Message](),
	"Meter":               reflect.TypeFor[distsketch.Meter](),
	"Network":             reflect.TypeFor[distsketch.Network](),
	"Node":                reflect.TypeFor[distsketch.Node](),
	"Observer":            reflect.TypeFor[distsketch.Observer](),
	"PCACombined":         reflect.TypeFor[distsketch.PCACombined](),
	"PCAParams":           reflect.TypeFor[distsketch.PCAParams](),
	"Partition":           reflect.TypeFor[distsketch.Partition](),
	"Plan":                reflect.TypeFor[distsketch.Plan](),
	"Protocol":            reflect.TypeFor[distsketch.Protocol](),
	"Registry":            reflect.TypeFor[distsketch.Registry](),
	"RegistrySnapshot":    reflect.TypeFor[distsketch.RegistrySnapshot](),
	"Result":              reflect.TypeFor[distsketch.Result](),
	"Role":                reflect.TypeFor[distsketch.Role](),
	"RowSampling":         reflect.TypeFor[distsketch.RowSampling](),
	"RowSource":           reflect.TypeFor[distsketch.RowSource](),
	"RunOption":           reflect.TypeFor[distsketch.RunOption](),
	"SVS":                 reflect.TypeFor[distsketch.SVS](),
	"SamplingFn":          reflect.TypeFor[distsketch.SamplingFn](),
	"ServiceConfig":       reflect.TypeFor[distsketch.ServiceConfig](),
	"ServiceCoordinator":  reflect.TypeFor[distsketch.ServiceCoordinator](),
	"ServiceServer":       reflect.TypeFor[distsketch.ServiceServer](),
	"ServiceStatus":       reflect.TypeFor[distsketch.ServiceStatus](),
	"ServiceWindowResult": reflect.TypeFor[distsketch.ServiceWindowResult](),
	"SketchPCA":           reflect.TypeFor[distsketch.SketchPCA](),
	"SparseRowSource":     reflect.TypeFor[distsketch.SparseRowSource](),
	"StragglerPolicy":     reflect.TypeFor[distsketch.StragglerPolicy](),
	"TCPAggregator":       reflect.TypeFor[distsketch.TCPAggregator](),
	"TCPCoordinator":      reflect.TypeFor[distsketch.TCPCoordinator](),
	"TCPOptions":          reflect.TypeFor[distsketch.TCPOptions](),
	"TCPServer":           reflect.TypeFor[distsketch.TCPServer](),
	"Topology":            reflect.TypeFor[distsketch.Topology](),
	"TraceEvent":          reflect.TypeFor[distsketch.TraceEvent](),
	"Tracer":              reflect.TypeFor[distsketch.Tracer](),
	"TrackingConfig":      reflect.TypeFor[distsketch.TrackingConfig](),
	"TrackingPolicy":      reflect.TypeFor[distsketch.TrackingPolicy](),
	"WirePrecision":       reflect.TypeFor[distsketch.WirePrecision](),
}

// TestPublicSurfaceMatchesAPIFile pins the facade's exported identifiers,
// and the exported fields of its struct types, to the committed api.txt, so
// the public surface cannot grow (or lose a name or a settable field)
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

	for name := range got {
		typ, ok := strings.CutSuffix(name, " type")
		if !ok {
			continue
		}
		rt := facadeTypes[typ]
		if rt == nil {
			t.Fatalf("exported type %s has no entry in facadeTypes; add one", typ)
		}
		if rt.Kind() != reflect.Struct {
			continue
		}
		for _, f := range reflect.VisibleFields(rt) {
			if len(f.Index) == 1 && f.IsExported() {
				got[typ+"."+f.Name+" field"] = true
			}
		}
	}
	for typ := range facadeTypes {
		if !got[typ+" type"] {
			t.Errorf("facadeTypes lists %s, which the package does not export", typ)
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
