package minjs

// Tracer observes the realm state a running script consults, so a host can
// tell what a program's run depended on (see Interp.Tracer). Events arrive in
// program order and repeat as often as the script repeats a lookup.
type Tracer interface {
	// OwnRead reports that o was asked for its own property key, whether or
	// not it has one. Array index and length reads are reported too.
	OwnRead(o *Object, key string)
	// ProtoRead reports that o's prototype link was followed.
	ProtoRead(o *Object)
	// Call reports a call about to start with depth frames on the stack.
	Call(fn *Object, depth int)
	// Opaque reports a consultation the events above cannot describe: a
	// host function that does not report its reads, a for-in walk, an
	// object converted to a primitive, or a captured stack trace.
	Opaque()
}

// findProperty is FindProperty reporting the chain walk to the tracer.
func (it *Interp) findProperty(o *Object, key string) (*Object, *Property) {
	if it.Tracer != nil {
		return it.tracedFind(o, key)
	}
	return o.FindProperty(key)
}

func (it *Interp) tracedFind(o *Object, key string) (*Object, *Property) {
	for cur := o; cur != nil; cur = cur.Proto {
		it.Tracer.OwnRead(cur, key)
		if p, ok := cur.lookupOwn(key); ok {
			return cur, p
		}
		it.Tracer.ProtoRead(cur)
	}
	return nil, nil
}

// has is Object.Has reporting the chain walk to the tracer.
func (it *Interp) has(o *Object, key string) bool {
	if it.Tracer == nil {
		return o.Has(key)
	}
	for cur := o; cur != nil; cur = cur.Proto {
		it.Tracer.OwnRead(cur, key)
		if cur.HasOwn(key) {
			return true
		}
		it.Tracer.ProtoRead(cur)
	}
	return false
}

// traceOwn reports a host-side own-property lookup on o.
func (it *Interp) traceOwn(o *Object, key string) {
	if it.Tracer != nil {
		it.Tracer.OwnRead(o, key)
	}
}

// traceConv reports the conversion of v to a primitive when v is an object:
// the result depends on the object's class, elements or function source,
// which no read event describes.
func (it *Interp) traceConv(v Value) {
	if it.Tracer != nil && v.Kind == KindObject {
		it.Tracer.Opaque()
	}
}

// traceOpaque reports an undescribable consultation.
func (it *Interp) traceOpaque() {
	if it.Tracer != nil {
		it.Tracer.Opaque()
	}
}

// newTracedNative is NewNative for built-ins that report every read they
// make through the tracer; calls to any other host function are opaque.
func (it *Interp) newTracedNative(name string, fn NativeFunc) *Object {
	o := it.NewNative(name, fn)
	for i, t := range it.tracedNatives {
		if t == nil {
			it.tracedNatives[i] = o
			return o
		}
	}
	panic("minjs: more traced natives than tracedNatives holds")
}

// tracesReads reports whether host function fn is one of this realm's
// built-ins that report their reads.
func (it *Interp) tracesReads(fn *Object) bool {
	for _, t := range it.tracedNatives {
		if t == fn {
			return true
		}
	}
	return false
}
