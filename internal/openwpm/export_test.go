package openwpm

import (
	"fmt"
	"sort"
	"strings"

	"gullible/internal/jsdom"
	"gullible/internal/minjs"
)

// ForceScriptInstall makes every JSInstrument in the process run its script
// in every realm (on) instead of applying its install plan, or restores the
// plan (off). Callers must not run crawls concurrently with a switch.
func ForceScriptInstall(on bool) { forceScriptInstall = on }

// DumpRealm renders everything the page can reach in realm d — every
// object, closure and scope reachable from the global object, the realm's
// intrinsic prototypes and the DOM's handles, with property order and
// attributes, closure literals and scope bindings — plus the interpreter's
// step and allocation counters. Objects and scopes are numbered in walk
// order, so two realms built alike render equal exactly when the page could
// not tell them apart.
func DumpRealm(d *jsdom.DOM) string {
	w := &realmWalker{objs: map[*minjs.Object]int{}, scopes: map[*minjs.Scope]int{}}
	p := d.It.Protos
	roots := []*minjs.Object{d.Window, p.Object, p.Function, p.Array, p.Error, p.String, p.Number, p.Boolean,
		d.Navigator, d.Screen, d.Document, d.Location}
	names := make([]string, 0, len(d.Protos))
	for n := range d.Protos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		roots = append(roots, d.Protos[n])
	}
	fmt.Fprintf(&w.out, "roots")
	for _, r := range roots {
		fmt.Fprintf(&w.out, " %s", w.obj(r))
	}
	fmt.Fprintf(&w.out, "\nsteps=%d allocs=%d\n", d.It.Steps(), d.It.Allocs())
	for len(w.queue) > 0 {
		item := w.queue[0]
		w.queue = w.queue[1:]
		item()
	}
	return w.out.String()
}

type realmWalker struct {
	out    strings.Builder
	objs   map[*minjs.Object]int
	scopes map[*minjs.Scope]int
	queue  []func()
}

func (w *realmWalker) obj(o *minjs.Object) string {
	if o == nil {
		return "nil"
	}
	if n, ok := w.objs[o]; ok {
		return fmt.Sprintf("#%d", n)
	}
	n := len(w.objs)
	w.objs[o] = n
	w.queue = append(w.queue, func() { w.dumpObj(n, o) })
	return fmt.Sprintf("#%d", n)
}

func (w *realmWalker) scope(s *minjs.Scope) string {
	if s == nil {
		return "nil"
	}
	if g := s.Global(); g != nil {
		return "global(" + w.obj(g) + ")"
	}
	if n, ok := w.scopes[s]; ok {
		return fmt.Sprintf("S%d", n)
	}
	n := len(w.scopes)
	w.scopes[s] = n
	w.queue = append(w.queue, func() {
		fmt.Fprintf(&w.out, "S%d parent=%s", n, w.scope(s.Parent()))
		for i := 0; i < s.NumBindings(); i++ {
			name, v := s.Binding(i)
			fmt.Fprintf(&w.out, " %s=%s", name, w.val(v))
		}
		w.out.WriteByte('\n')
	})
	return fmt.Sprintf("S%d", n)
}

func (w *realmWalker) val(v minjs.Value) string {
	if v.IsObject() {
		return w.obj(v.Obj)
	}
	return fmt.Sprintf("%s:%q", v.Kind, v.ToString())
}

func (w *realmWalker) dumpObj(n int, o *minjs.Object) {
	fmt.Fprintf(&w.out, "#%d %s proto=%s notext=%v host=%T", n, o.Class, w.obj(o.Proto), o.NotExtensible, o.Host)
	if minjs.ObjectValue(o).IsFunction() {
		fmt.Fprintf(&w.out, " src=%q", o.FunctionSource())
		if lit, env := o.Closure(); lit != nil {
			fmt.Fprintf(&w.out, " lit=%p env=%s", lit, w.scope(env))
		}
		if this, ok := o.ArrowThis(); ok {
			fmt.Fprintf(&w.out, " this=%s", w.val(this))
		}
	}
	for _, e := range o.Elems {
		fmt.Fprintf(&w.out, " [%s]", w.val(e))
	}
	for _, k := range o.OwnKeys(false) {
		p := o.GetOwn(k)
		if p == nil {
			continue
		}
		fmt.Fprintf(&w.out, "\n  %q e=%v c=%v", k, p.Enumerable, p.Configurable)
		if p.Accessor {
			fmt.Fprintf(&w.out, " get=%s set=%s", w.obj(p.Get), w.obj(p.Set))
		} else {
			fmt.Fprintf(&w.out, " w=%v %s", p.Writable, w.val(p.Value))
		}
	}
	w.out.WriteByte('\n')
}
