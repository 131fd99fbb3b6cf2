package minjs

import "errors"

// Graph is a frozen copy of objects, closures and scopes that a script
// created in one realm, kept so that equal copies can be made in other
// realms without running the script again. Objects the graph does not own —
// prototypes, host functions, anything that existed before the script ran —
// are leaves: CaptureGraph numbers them through the caller's leaf function and
// Instantiate resolves each number to the destination realm's object. A
// realm's global scope is never copied either; closures that reach it reach
// the destination's.
type Graph struct {
	prims      []Value // the primitives scope bindings hold, deduplicated
	objs       []graphObject
	scopes     []graphScope
	roots      []graphProp
	smallProps int // properties of objects holding 1 to smallPropsMax
}

// graphRef names an object: >= 0 is an index into Graph.objs, refNil is no
// object, and refLeaf(n) encodes leaf n.
type graphRef int32

const refNil graphRef = -1

func refLeaf(n int) graphRef { return graphRef(-2 - n) }

// scopeGlobal and scopeNil are the parent/env encodings of the destination's
// global scope and of no scope.
const (
	scopeNil    int32 = -1
	scopeGlobal int32 = -2
)

type graphValue struct {
	v   Value // a primitive; ignored when ref names an object
	ref graphRef
}

type graphProp struct {
	key      string
	val      graphValue
	get, set graphRef
	accessor bool
	enum     bool
	writable bool
	config   bool
}

type graphObject struct {
	class     string
	proto     graphRef
	props     []graphProp
	elems     []graphValue
	callable  bool
	fn        *FuncLit
	env       int32
	arrowThis *graphValue
	toString  string
	notExt    bool
}

type graphScope struct {
	names  []string
	vals   []graphBinding
	parent int32
}

// graphBinding is a scope binding in eight bytes rather than a
// graphValue's 48 (scopes hold most of a graph's values): prim indexes the
// graph's primitives, or is -1 when ref names an object.
type graphBinding struct {
	ref  graphRef
	prim int32
}

// errNotCopyable reports a graph that cannot be captured: it owns a host
// function or host-backed object (their Go state cannot be copied), or a
// scope the VM recycles.
var errNotCopyable = errors.New("minjs: object graph holds host state")

// CaptureGraph freezes the objects reachable from the given property slots,
// stopping at leaves. leaf returns the number of an object the graph must
// not own; it is also asked about prototypes, closure values and scope
// bindings. The slots themselves become the graph's roots, in order.
func CaptureGraph(roots []*Property, leaf func(*Object) (int, bool)) (*Graph, error) {
	c := &graphCapture{g: &Graph{}, leaf: leaf, objs: map[*Object]graphRef{}, scopes: map[*Scope]int32{}, prims: map[Value]int32{}}
	for _, p := range roots {
		gp, err := c.prop("", p)
		if err != nil {
			return nil, err
		}
		c.g.roots = append(c.g.roots, gp)
	}
	return c.g, nil
}

type graphCapture struct {
	g      *Graph
	leaf   func(*Object) (int, bool)
	objs   map[*Object]graphRef
	scopes map[*Scope]int32
	prims  map[Value]int32
}

func (c *graphCapture) binding(v Value) (graphBinding, error) {
	if v.Kind == KindObject {
		r, err := c.object(v.Obj)
		return graphBinding{ref: r, prim: -1}, err
	}
	i, ok := c.prims[v]
	if !ok {
		i = int32(len(c.g.prims))
		c.prims[v] = i
		c.g.prims = append(c.g.prims, v)
	}
	return graphBinding{prim: i}, nil
}

func (c *graphCapture) prop(key string, p *Property) (graphProp, error) {
	gp := graphProp{key: key, accessor: p.Accessor, enum: p.Enumerable, writable: p.Writable, config: p.Configurable}
	var err error
	if gp.val, err = c.value(p.Value); err != nil {
		return gp, err
	}
	if gp.get, err = c.object(p.Get); err != nil {
		return gp, err
	}
	gp.set, err = c.object(p.Set)
	return gp, err
}

func (c *graphCapture) value(v Value) (graphValue, error) {
	if v.Kind != KindObject {
		return graphValue{v: v, ref: refNil}, nil
	}
	r, err := c.object(v.Obj)
	return graphValue{ref: r}, err
}

func (c *graphCapture) object(o *Object) (graphRef, error) {
	if o == nil {
		return refNil, nil
	}
	if r, ok := c.objs[o]; ok {
		return r, nil
	}
	if n, ok := c.leaf(o); ok {
		c.objs[o] = refLeaf(n)
		return refLeaf(n), nil
	}
	if o.Host != nil || (o.fnd != nil && o.fnd.Native != nil) {
		return refNil, errNotCopyable
	}
	r := graphRef(len(c.g.objs))
	c.objs[o] = r
	c.g.objs = append(c.g.objs, graphObject{})
	g := graphObject{class: o.Class, notExt: o.NotExtensible, env: scopeNil}
	var err error
	if g.proto, err = c.object(o.Proto); err != nil {
		return refNil, err
	}
	for _, k := range o.OwnKeys(false) {
		p, ok := o.lookupOwn(k)
		if !ok {
			continue // an array index: copied with the elements
		}
		gp, err := c.prop(k, p)
		if err != nil {
			return refNil, err
		}
		g.props = append(g.props, gp)
	}
	if o.Elems != nil {
		g.elems = make([]graphValue, len(o.Elems))
		for i, e := range o.Elems {
			if g.elems[i], err = c.value(e); err != nil {
				return refNil, err
			}
		}
	}
	if fd := o.fnd; fd != nil {
		g.callable = true
		g.fn = fd.Fn
		g.toString = fd.ToStringOverride
		if fd.arrowThis != nil {
			this, err := c.value(*fd.arrowThis)
			if err != nil {
				return refNil, err
			}
			g.arrowThis = &this
		}
		if g.env, err = c.scope(fd.Env); err != nil {
			return refNil, err
		}
	}
	if n := len(g.props); n <= smallPropsMax {
		c.g.smallProps += n
	}
	c.g.objs[r] = g
	return r, nil
}

func (c *graphCapture) scope(s *Scope) (int32, error) {
	switch {
	case s == nil:
		return scopeNil, nil
	case s.global != nil:
		return scopeGlobal, nil
	case s.pooled:
		return scopeNil, errNotCopyable
	}
	if i, ok := c.scopes[s]; ok {
		return i, nil
	}
	i := int32(len(c.g.scopes))
	c.scopes[s] = i
	c.g.scopes = append(c.g.scopes, graphScope{})
	gs := graphScope{names: append([]string(nil), s.names...), vals: make([]graphBinding, len(s.vals))}
	var err error
	for j, v := range s.vals {
		if gs.vals[j], err = c.binding(v); err != nil {
			return scopeNil, err
		}
	}
	if gs.parent, err = c.scope(s.parent); err != nil {
		return scopeNil, err
	}
	c.g.scopes[i] = gs
	return i, nil
}

// Instantiate copies the graph into it, resolving leaf n to
// leaves[n], and returns fresh property slots equal to the captured roots,
// in order. The copies come from the realm's arenas, like the objects a
// script allocates; the realm's allocation count is left to Charge.
func (g *Graph) Instantiate(it *Interp, leaves []*Object) []Property {
	in := instantiation{objs: make([]*Object, len(g.objs)), scopes: make([]*Scope, len(g.scopes)), leaves: leaves, root: it.root}
	for i := range g.objs {
		if g.objs[i].callable {
			f := it.allocFunc()
			f.fnd = &f.fd
			in.objs[i] = &f.Object
		} else {
			in.objs[i] = it.allocObject()
		}
	}
	for i := range g.scopes {
		in.scopes[i] = it.newScopeIn(nil, 0)
	}
	for i := range g.scopes {
		gs, s := &g.scopes[i], in.scopes[i]
		s.parent = in.scope(gs.parent)
		// a scope gains no bindings once its activation has returned, and
		// the full capacity makes any append copy: the names are shared
		s.names = gs.names[:len(gs.names):len(gs.names)]
		s.vals = it.carveVals(len(gs.vals))[:len(gs.vals)]
		for j, b := range gs.vals {
			if b.prim >= 0 {
				s.vals[j] = g.prims[b.prim]
			} else {
				s.vals[j] = Value{Kind: KindObject, Obj: in.ref(b.ref)}
			}
		}
	}
	// small objects' properties come from two shared blocks, entries and
	// slots, instead of a chunk each; lookup and order are DefineProperty's
	slots := make([]Property, g.smallProps)
	entries := make([]propEntry, g.smallProps)
	for i := range g.objs {
		gobj, o := &g.objs[i], in.objs[i]
		o.Class = gobj.class
		o.Proto = in.ref(gobj.proto)
		o.NotExtensible = gobj.notExt
		if n := len(gobj.props); n > 0 && n <= smallPropsMax {
			o.small, entries = entries[:n:n], entries[n:]
			for j := range gobj.props {
				slots[0] = in.prop(&gobj.props[j])
				o.small[j] = propEntry{key: gobj.props[j].key, p: &slots[0]}
				slots = slots[1:]
			}
		} else {
			for j := range gobj.props {
				o.DefineProperty(gobj.props[j].key, o.newProp(in.prop(&gobj.props[j])))
			}
		}
		if gobj.elems != nil {
			o.Elems = it.carveVals(len(gobj.elems))
			for j := range gobj.elems {
				o.Elems = append(o.Elems, in.val(&gobj.elems[j]))
			}
		}
		if gobj.callable {
			fd := o.fnd
			fd.Fn = gobj.fn
			fd.Env = in.scope(gobj.env)
			if gobj.arrowThis != nil {
				this := in.val(gobj.arrowThis)
				fd.arrowThis = &this
			}
			fd.ToStringOverride = gobj.toString
		}
	}
	roots := make([]Property, len(g.roots))
	for i := range g.roots {
		roots[i] = in.prop(&g.roots[i])
	}
	return roots
}

// instantiation resolves a graph's references while Instantiate copies it.
type instantiation struct {
	objs   []*Object
	scopes []*Scope
	leaves []*Object
	root   *Scope
}

func (in *instantiation) ref(r graphRef) *Object {
	if r >= 0 {
		return in.objs[r]
	}
	if r == refNil {
		return nil
	}
	return in.leaves[-2-r]
}

func (in *instantiation) val(v *graphValue) Value {
	if v.ref == refNil {
		return v.v
	}
	return Value{Kind: KindObject, Obj: in.ref(v.ref)}
}

func (in *instantiation) scope(i int32) *Scope {
	switch i {
	case scopeNil:
		return nil
	case scopeGlobal:
		return in.root
	}
	return in.scopes[i]
}

func (in *instantiation) prop(gp *graphProp) Property {
	return Property{Value: in.val(&gp.val), Get: in.ref(gp.get), Set: in.ref(gp.set),
		Accessor: gp.accessor, Enumerable: gp.enum, Writable: gp.writable, Configurable: gp.config}
}

// Closure returns a script function's literal and the scope it closes over;
// both are nil for host functions and other objects.
func (o *Object) Closure() (*FuncLit, *Scope) {
	if o.fnd == nil || o.fnd.Fn == nil {
		return nil, nil
	}
	return o.fnd.Fn, o.fnd.Env
}

// HostFunction reports whether o is a host function, and its name.
func (o *Object) HostFunction() (string, bool) {
	if o.fnd == nil || o.fnd.Native == nil {
		return "", false
	}
	return o.fnd.NativeName, true
}

// ArrowThis returns the this an arrow function closed over, and whether o
// has one.
func (o *Object) ArrowThis() (Value, bool) {
	if o.fnd == nil || o.fnd.arrowThis == nil {
		return Undefined(), false
	}
	return *o.fnd.arrowThis, true
}

// Parent returns the enclosing scope; a realm's global scope has none.
func (s *Scope) Parent() *Scope { return s.parent }

// Global returns the object backing a realm's global scope, nil for others.
func (s *Scope) Global() *Object { return s.global }

// NumBindings reports how many bindings the scope holds.
func (s *Scope) NumBindings() int { return len(s.names) }

// Binding returns the scope's i-th binding in declaration order.
func (s *Scope) Binding(i int) (string, Value) { return s.names[i], s.vals[i] }
