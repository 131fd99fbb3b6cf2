package jsdom

import (
	"fmt"
	"strings"

	"gullible/internal/minjs"
)

// DOM is one realm's browser object model: a window (the realm's global
// object) plus the navigator/screen/document graph and the interface
// prototype objects that instrumentation hooks into.
type DOM struct {
	Cfg  Config
	It   *minjs.Interp
	Host Host
	URL  string

	Window    *minjs.Object
	Navigator *minjs.Object
	Screen    *minjs.Object
	Document  *minjs.Object
	Location  *minjs.Object

	// Interface prototypes, by interface name ("Navigator", "Screen", …).
	Protos map[string]*minjs.Object

	// Frames are the subframes created in this document, in creation order.
	Frames []*DOM
	// Parent is the parent DOM for subframes, nil for top documents.
	Parent *DOM

	// hostListeners receive events delivered through the ORIGINAL native
	// dispatchEvent — this models the extension content script listening on
	// the page. A page that shadows document.dispatchEvent sits between
	// wrapper code and this registry (the Sec. 5.1 attack).
	hostListeners map[string][]func(ev minjs.Value)

	// pageListeners holds addEventListener registrations (never fired by
	// the default crawl — OpenWPM performs no interaction, Table 1).
	pageListeners map[string][]*minjs.Object

	elementsByID map[string]*minjs.Object

	languagesObj *minjs.Object
	webglCtx     *minjs.Object // singleton per realm, nil until first getContext
	ctx2D        *minjs.Object
}

// Build constructs the object model for cfg inside a fresh realm.
func Build(cfg Config, host Host, url string) *DOM {
	it := minjs.New()
	d := &DOM{
		Cfg:           cfg,
		It:            it,
		Host:          host,
		URL:           url,
		Window:        it.Global,
		Protos:        map[string]*minjs.Object{},
		hostListeners: map[string][]func(minjs.Value){},
		pageListeners: map[string][]*minjs.Object{},
		elementsByID:  map[string]*minjs.Object{},
	}
	d.buildPrototypes()
	d.buildNavigator()
	d.buildScreen()
	d.buildWindowProps()
	d.buildDocument()
	d.buildNet()
	d.buildDateIntl()
	return d
}

// proto creates (once) an interface prototype object plus a global
// constructor binding, mirroring how Firefox exposes WebIDL interfaces.
func (d *DOM) proto(name string) *minjs.Object {
	if p, ok := d.Protos[name]; ok {
		return p
	}
	p := minjs.NewObject(d.It.Protos.Object)
	p.Class = name + "Prototype"
	ctor := d.It.NewNative(name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Undefined(), it.ThrowError("TypeError", "Illegal constructor")
	})
	ctor.SetNonEnum("prototype", minjs.ObjectValue(p))
	p.SetNonEnum("constructor", minjs.ObjectValue(ctor))
	d.Window.SetNonEnum(name, minjs.ObjectValue(ctor))
	d.Protos[name] = p
	return p
}

// DefineGetter installs a native accessor on proto that brand-checks `this`:
// invoking the getter with a foreign receiver throws TypeError, exactly like
// a WebIDL attribute getter. Instrumentation that replaces such a getter with
// a plain script function loses this behaviour — one of the tells of Sec. 6.1.
func (d *DOM) DefineGetter(proto *minjs.Object, class, name string, get func(this *minjs.Object) minjs.Value) {
	getter := d.It.NewNative("get "+name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if !this.IsObject() || this.Obj.Class != class {
			return minjs.Undefined(), it.ThrowError("TypeError", "'get %s' called on an object that does not implement interface %s", name, class)
		}
		return get(this.Obj), nil
	})
	proto.DefineAccessor(name, getter, nil, true)
}

// DefineMethod installs a native method on proto.
func (d *DOM) DefineMethod(proto *minjs.Object, name string, fn minjs.NativeFunc) {
	proto.SetNonEnum(name, minjs.ObjectValue(d.It.NewNative(name, fn)))
}

func (d *DOM) buildNavigator() {
	it := d.It
	np := d.proto("Navigator")
	nav := minjs.NewObject(np)
	nav.Class = "Navigator"
	d.Navigator = nav

	cfg := d.Cfg
	str := func(s string) func(*minjs.Object) minjs.Value {
		return func(*minjs.Object) minjs.Value { return minjs.String(s) }
	}
	g := func(name string, fn func(*minjs.Object) minjs.Value) {
		d.DefineGetter(np, "Navigator", name, fn)
	}

	g("userAgent", str(cfg.UserAgent))
	g("webdriver", func(*minjs.Object) minjs.Value { return minjs.Boolean(cfg.Automation) })

	// navigator.languages returns a stable array object; in headless mode it
	// carries 43 spurious extra properties (Sec. 3.1.2).
	langs := make([]minjs.Value, len(cfg.Languages))
	for i, l := range cfg.Languages {
		langs[i] = minjs.String(l)
	}
	d.languagesObj = it.NewArrayP(langs...)
	for i := 0; i < cfg.HeadlessLanguageExtras; i++ {
		d.languagesObj.Set(fmt.Sprintf("mozHeadlessLocaleHint%02d", i), minjs.Int(i))
	}
	g("languages", func(*minjs.Object) minjs.Value { return minjs.ObjectValue(d.languagesObj) })
	lang := "en-US"
	if len(cfg.Languages) > 0 {
		lang = cfg.Languages[0]
	}
	g("language", str(lang))

	platform := "Linux x86_64"
	oscpu := "Linux x86_64"
	if cfg.OS == MacOS {
		platform = "MacIntel"
		oscpu = "Intel Mac OS X 10.15"
	}
	g("platform", str(platform))
	g("oscpu", str(oscpu))
	g("hardwareConcurrency", func(*minjs.Object) minjs.Value { return minjs.Int(8) })
	g("appName", str("Netscape"))
	g("appVersion", str("5.0 ("+platform+")"))
	g("appCodeName", str("Mozilla"))
	g("product", str("Gecko"))
	g("productSub", str("20100101"))
	g("vendor", str(""))
	g("vendorSub", str(""))
	buildID := "20181001000000"
	g("buildID", str(buildID))
	g("doNotTrack", str("unspecified"))
	g("cookieEnabled", func(*minjs.Object) minjs.Value { return minjs.Boolean(true) })
	g("onLine", func(*minjs.Object) minjs.Value { return minjs.Boolean(true) })
	g("maxTouchPoints", func(*minjs.Object) minjs.Value { return minjs.Int(0) })
	plugins := it.NewArrayP()
	g("plugins", func(*minjs.Object) minjs.Value { return minjs.ObjectValue(plugins) })
	mimeTypes := it.NewArrayP()
	g("mimeTypes", func(*minjs.Object) minjs.Value { return minjs.ObjectValue(mimeTypes) })

	d.DefineMethod(np, "javaEnabled", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Boolean(false), nil
	})
	d.DefineMethod(np, "getGamepads", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(it.NewArrayP()), nil
	})
	d.DefineMethod(np, "registerProtocolHandler", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Undefined(), nil
	})
	d.DefineMethod(np, "taintEnabled", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Boolean(false), nil
	})
	d.DefineMethod(np, "sendBeacon", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		url := argStr(args, 0)
		body := argStr(args, 1)
		d.Host.Fetch(d.absURL(url), beaconType, "POST", body)
		return minjs.Boolean(true), nil
	})

	d.Window.SetNonEnum("navigator", minjs.ObjectValue(nav))
}

func (d *DOM) buildScreen() {
	sp := d.proto("Screen")
	scr := minjs.NewObject(sp)
	scr.Class = "Screen"
	d.Screen = scr
	cfg := d.Cfg
	num := func(n int) func(*minjs.Object) minjs.Value {
		return func(*minjs.Object) minjs.Value { return minjs.Int(n) }
	}
	g := func(name string, fn func(*minjs.Object) minjs.Value) {
		d.DefineGetter(sp, "Screen", name, fn)
	}
	g("width", num(cfg.ScreenW))
	g("height", num(cfg.ScreenH))
	g("availWidth", num(cfg.ScreenW-cfg.AvailLeft))
	g("availHeight", num(cfg.ScreenH-cfg.AvailTop))
	g("availTop", num(cfg.AvailTop))
	g("availLeft", num(cfg.AvailLeft))
	g("colorDepth", num(24))
	g("pixelDepth", num(24))
	g("top", num(0))
	g("left", num(0))
	if cfg.OS == MacOS {
		// Synthetic platform-specific attribute: the macOS build exposes one
		// extra Screen property, giving the +253 (vs +252) tampering count
		// of Table 2.
		g("mozBrightness", func(*minjs.Object) minjs.Value { return minjs.Number(1) })
	}
	d.Window.SetNonEnum("screen", minjs.ObjectValue(scr))
}

func (d *DOM) buildWindowProps() {
	w := d.Window
	cfg := d.Cfg
	x := cfg.WindowX + cfg.OffsetX*cfg.WindowIndex
	y := cfg.WindowY + cfg.OffsetY*cfg.WindowIndex

	w.SetNonEnum("innerWidth", minjs.Int(cfg.WindowW))
	w.SetNonEnum("innerHeight", minjs.Int(cfg.WindowH))
	w.SetNonEnum("outerWidth", minjs.Int(cfg.WindowW))
	w.SetNonEnum("outerHeight", minjs.Int(cfg.WindowH+74)) // chrome height
	w.SetNonEnum("screenX", minjs.Int(x))
	w.SetNonEnum("screenY", minjs.Int(y))
	w.SetNonEnum("mozInnerScreenX", minjs.Int(x))
	w.SetNonEnum("mozInnerScreenY", minjs.Int(y+74))
	w.SetNonEnum("devicePixelRatio", minjs.Number(1))
	w.SetNonEnum("name", minjs.String(""))
	w.SetNonEnum("status", minjs.String(""))
	w.SetNonEnum("closed", minjs.Boolean(false))
	w.SetNonEnum("self", minjs.ObjectValue(w))
	w.SetNonEnum("window", minjs.ObjectValue(w))

	// top / parent resolve dynamically so subframes see their ancestors.
	topGetter := d.It.NewNative("get top", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		cur := d
		for cur.Parent != nil {
			cur = cur.Parent
		}
		return minjs.ObjectValue(cur.Window), nil
	})
	w.DefineAccessor("top", topGetter, nil, false)
	parentGetter := d.It.NewNative("get parent", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if d.Parent != nil {
			return minjs.ObjectValue(d.Parent.Window), nil
		}
		return minjs.ObjectValue(w), nil
	})
	w.DefineAccessor("parent", parentGetter, nil, false)

	// frames: a live array of subframe windows.
	framesGetter := d.It.NewNative("get frames", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		arr := it.NewArrayP()
		for _, f := range d.Frames {
			arr.Elems = append(arr.Elems, minjs.ObjectValue(f.Window))
		}
		return minjs.ObjectValue(arr), nil
	})
	w.DefineAccessor("frames", framesGetter, nil, false)
	lengthGetter := d.It.NewNative("get length", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Int(len(d.Frames)), nil
	})
	w.DefineAccessor("length", lengthGetter, nil, false)

	// location
	loc := minjs.NewObject(d.It.Protos.Object)
	loc.Class = "Location"
	d.Location = loc
	d.refreshLocation()
	w.SetNonEnum("location", minjs.ObjectValue(loc))

	// timers
	w.SetNonEnum("setTimeout", minjs.ObjectValue(d.It.NewNative("setTimeout", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		fnV := argVal(args, 0)
		if !fnV.IsFunction() {
			return minjs.Int(0), nil
		}
		delay := argVal(args, 1).ToNumber()
		var rest []minjs.Value
		if len(args) > 2 {
			rest = args[2:]
		}
		id := d.Host.SetTimeout(fnV.Obj, rest, delay)
		return minjs.Int(id), nil
	})))
	w.SetNonEnum("clearTimeout", minjs.ObjectValue(d.It.NewNative("clearTimeout", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d.Host.ClearTimeout(int(argVal(args, 0).ToNumber()))
		return minjs.Undefined(), nil
	})))
	w.SetNonEnum("setInterval", minjs.ObjectValue(d.It.NewNative("setInterval", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		// intervals degrade to a single shot in the simulation
		fnV := argVal(args, 0)
		if !fnV.IsFunction() {
			return minjs.Int(0), nil
		}
		id := d.Host.SetTimeout(fnV.Obj, nil, argVal(args, 1).ToNumber())
		return minjs.Int(id), nil
	})))
	w.SetNonEnum("clearInterval", minjs.ObjectValue(d.It.NewNative("clearInterval", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d.Host.ClearTimeout(int(argVal(args, 0).ToNumber()))
		return minjs.Undefined(), nil
	})))

	// window.open
	w.SetNonEnum("open", minjs.ObjectValue(d.It.NewNative("open", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		url := d.absURL(argStr(args, 0))
		nd, err := d.Host.OpenWindow(url)
		if err != nil || nd == nil {
			return minjs.Null(), nil
		}
		return minjs.ObjectValue(nd.Window), nil
	})))

	w.SetNonEnum("addEventListener", minjs.ObjectValue(d.It.NewNative("addEventListener", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d.addPageListener(argStr(args, 0), argVal(args, 1))
		return minjs.Undefined(), nil
	})))
	w.SetNonEnum("removeEventListener", minjs.ObjectValue(d.It.NewNative("removeEventListener", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Undefined(), nil
	})))

	// localStorage: an in-memory Storage object.
	store := map[string]string{}
	ls := minjs.NewObject(d.It.Protos.Object)
	ls.Class = "Storage"
	d.DefineMethod(ls, "getItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if v, ok := store[argStr(args, 0)]; ok {
			return minjs.String(v), nil
		}
		return minjs.Null(), nil
	})
	d.DefineMethod(ls, "setItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		store[argStr(args, 0)] = argStr(args, 1)
		return minjs.Undefined(), nil
	})
	d.DefineMethod(ls, "removeItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		delete(store, argStr(args, 0))
		return minjs.Undefined(), nil
	})
	w.SetNonEnum("localStorage", minjs.ObjectValue(ls))
}

// refreshLocation re-derives location fields from d.URL.
func (d *DOM) refreshLocation() {
	scheme, host, path := splitURL(d.URL)
	d.Location.Set("href", minjs.String(d.URL))
	d.Location.Set("protocol", minjs.String(scheme+":"))
	d.Location.Set("host", minjs.String(host))
	d.Location.Set("hostname", minjs.String(host))
	d.Location.Set("pathname", minjs.String(path))
	d.Location.Set("origin", minjs.String(scheme+"://"+host))
}

func splitURL(url string) (scheme, host, path string) {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		scheme = rest[:i]
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	} else {
		host, path = rest, "/"
	}
	return
}

// absURL resolves ref against the document URL.
func (d *DOM) absURL(ref string) string {
	if strings.Contains(ref, "://") || d.URL == "" {
		return ref
	}
	scheme, host, basePath := splitURL(d.URL)
	if strings.HasPrefix(ref, "/") {
		return scheme + "://" + host + ref
	}
	dir := basePath
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	return scheme + "://" + host + dir + ref
}

func (d *DOM) addPageListener(event string, fn minjs.Value) {
	if fn.IsFunction() {
		d.pageListeners[event] = append(d.pageListeners[event], fn.Obj)
	}
}

// PageListeners returns registered page listeners for an event type; the
// crawler can fire them to simulate interaction.
func (d *DOM) PageListeners(event string) []*minjs.Object { return d.pageListeners[event] }

// ListenHostEvent registers an extension-side listener for events delivered
// through the original native dispatchEvent. This models the content script
// of OpenWPM's extension receiving instrumentation messages.
func (d *DOM) ListenHostEvent(eventType string, fn func(ev minjs.Value)) {
	d.hostListeners[eventType] = append(d.hostListeners[eventType], fn)
}

// deliverHostEvent routes an event object to host listeners by its type.
func (d *DOM) deliverHostEvent(ev minjs.Value) {
	if !ev.IsObject() {
		return
	}
	t, _ := d.It.GetMember(ev, "type")
	for _, fn := range d.hostListeners[t.ToString()] {
		fn(ev)
	}
}

func argVal(args []minjs.Value, i int) minjs.Value {
	if i < len(args) {
		return args[i]
	}
	return minjs.Undefined()
}

func argStr(args []minjs.Value, i int) string {
	v := argVal(args, i)
	if v.IsUndefined() {
		return ""
	}
	return v.ToString()
}
