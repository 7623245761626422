package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricSlot enforces the PR-1 telemetry slot convention.
//
// Instrumented packages hold their metric handles in package-level
// atomic.Pointer[telemetry.T] slots that stay nil until RegisterMetrics
// wires a registry; with telemetry off, hot paths pay one atomic load and
// a nil branch. A registered counter adds an atomic add on a shared cache
// line, so per-tick bulk paths count once per call. The convention is
// load-only outside registration: a Store anywhere else can race a
// concurrent reader with a half-registered family, and reading the slot
// without Load (passing &slot around, copying it) defeats the atomicity. Slots may therefore only appear as the receiver of .Load(),
// or of .Store(...) lexically inside a function named RegisterMetrics.
var MetricSlot = &Analyzer{
	Name: "metricslot",
	Doc: "telemetry metric slots may only be Load-ed; Store belongs in " +
		"RegisterMetrics",
	Allow: []string{
		"internal/telemetry", // the registry itself owns its internals
	},
	Run: runMetricSlot,
}

func runMetricSlot(pass *Pass) {
	slots := findMetricSlots(pass)
	if len(slots) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			inRegister := isFunc && fd.Name.Name == "RegisterMetrics"
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[id]
				if obj == nil || !slots[obj] {
					return true
				}
				method, methodCall := slotMethodUse(pass, f, id)
				switch {
				case methodCall && method == "Load":
					return true
				case methodCall && method == "Store" && inRegister:
					return true
				case methodCall && method == "Store":
					pass.Reportf(id.Pos(),
						"metric slot %s stored outside RegisterMetrics; registration is the only writer", id.Name)
				case methodCall:
					pass.Reportf(id.Pos(),
						"metric slot %s used via %s; only Load (and Store inside RegisterMetrics) are allowed", id.Name, method)
				default:
					pass.Reportf(id.Pos(),
						"metric slot %s escapes its atomic protocol; access it only as %s.Load()", id.Name, id.Name)
				}
				return true
			})
		}
	}
}

// findMetricSlots collects package-level vars of type
// sync/atomic.Pointer[T] where T is declared in internal/telemetry.
func findMetricSlots(pass *Pass) map[types.Object]bool {
	slots := make(map[types.Object]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		named, ok := v.Type().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
			continue
		}
		args := named.TypeArgs()
		if args == nil || args.Len() != 1 {
			continue
		}
		elem, ok := args.At(0).(*types.Named)
		if !ok || elem.Obj().Pkg() == nil {
			continue
		}
		if strings.HasSuffix(elem.Obj().Pkg().Path(), "/telemetry") {
			slots[v] = true
		}
	}
	return slots
}

// slotMethodUse reports the method name when id appears as the receiver
// of a direct method call (id.M(...)); methodCall is false for any other
// syntactic context.
func slotMethodUse(pass *Pass, f *ast.File, id *ast.Ident) (method string, methodCall bool) {
	var found *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if ok && sel.X == ast.Expr(id) {
			found = call
			return false
		}
		return true
	})
	if found == nil {
		return "", false
	}
	return found.Fun.(*ast.SelectorExpr).Sel.Name, true
}
