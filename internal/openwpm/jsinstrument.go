package openwpm

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
)

// InstrumentScriptName is the script URL instrumentation frames show in
// stack traces — one of the tells of Sec. 3.1.4.
const InstrumentScriptName = "openwpm-instrument.js"

// vanillaInstrumentJS is the page-context instrumentation OpenWPM injects.
// It reproduces the paper's observable behaviour faithfully:
//
//   - wrappers are page-context script functions, so Function.prototype
//     .toString exposes them (Listing 1) and they appear in stack traces;
//   - every hooked property is (re)defined on the FIRST prototype of the
//     instrumented instance, polluting multi-level prototype chains (Fig. 2);
//   - records travel through document.dispatchEvent tagged with a random
//     event id — interceptable and forgeable by the page (Secs. 5.1, 5.2);
//   - a helper function remains on window (getInstrumentJS, or the two
//     legacy globals of OpenWPM 0.10.0), a unique identifying property;
//   - wrapped getters swallow brand-check errors, so prototype-level access
//     no longer throws (Sec. 6.1.1).
const vanillaInstrumentJS = `(function () {
    var cfg = window.__wpmCfg;
    delete window.__wpmCfg;
    var logSettings = { logCallStack: false };

    function extractScriptUrl(stack) {
        var lines = stack.split("\n");
        for (var i = 0; i < lines.length; i++) {
            var line = lines[i];
            if (line === "") { continue; }
            if (line.indexOf("openwpm-instrument.js") >= 0) { continue; }
            if (line.indexOf("@native") >= 0) { continue; }
            var at = line.indexOf("@");
            if (at < 0) { continue; }
            var rest = line.slice(at + 1);
            var colon = rest.lastIndexOf(":");
            if (colon > 0) { rest = rest.slice(0, colon); }
            return rest;
        }
        return "";
    }

    function getOriginatingScriptContext(logCallStack) {
        var stack = "";
        try { throw new Error(""); } catch (e) { stack = e.stack; }
        return { scriptUrl: extractScriptUrl(stack), callStack: logCallStack ? stack : "" };
    }

    function logCall(name, args, callContext, logSettings) {
        var parts = [];
        for (var i = 0; i < args.length; i++) { parts.push("" + args[i]); }
        document.dispatchEvent(new CustomEvent(cfg.id, { detail: {
            symbol: name, operation: "call", args: parts.join(","),
            scriptUrl: callContext.scriptUrl
        }}));
    }

    function logValue(name, value, operation, callContext, logSettings) {
        document.dispatchEvent(new CustomEvent(cfg.id, { detail: {
            symbol: name, operation: operation, value: "" + value,
            scriptUrl: callContext.scriptUrl
        }}));
    }

    function findDescriptor(obj, name) {
        var proto = Object.getPrototypeOf(obj);
        while (proto !== null && proto !== undefined) {
            var d = Object.getOwnPropertyDescriptor(proto, name);
            if (d !== undefined) { return d; }
            proto = Object.getPrototypeOf(proto);
        }
        return undefined;
    }

    function instrumentFunction(target, objectName, methodName, func) {
        var wrapper = function () {
            const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
            logCall(objectName + "." + methodName, arguments, callContext, logSettings);
            return func.apply(this, arguments);
        };
        Object.defineProperty(target, methodName, {
            enumerable: true,
            configurable: true,
            get: function () { return wrapper; },
            set: function (value) {
                const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
                logValue(objectName + "." + methodName, value, "set", callContext, logSettings);
            }
        });
    }

    function instrumentProperty(target, objectName, propertyName, desc) {
        var origGet = desc.get;
        var origSet = desc.set;
        Object.defineProperty(target, propertyName, {
            enumerable: true,
            configurable: true,
            get: function () {
                const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
                var value;
                try { value = origGet.call(this); } catch (e) { value = undefined; }
                logValue(objectName + "." + propertyName, value, "get", callContext, logSettings);
                return value;
            },
            set: function (value) {
                const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
                logValue(objectName + "." + propertyName, value, "set", callContext, logSettings);
                if (origSet !== undefined && origSet !== null) { origSet.call(this, value); }
            }
        });
    }

    function instrumentObject(obj, objectName, propertyName) {
        if (obj === null || obj === undefined) { return; }
        var target = Object.getPrototypeOf(obj);
        if (target === null || target === undefined) { return; }
        var desc = findDescriptor(obj, propertyName);
        if (desc === undefined) { return; }
        if (desc.get !== undefined || desc.set !== undefined) {
            instrumentProperty(target, objectName, propertyName, desc);
        } else if (typeof desc.value === "function") {
            instrumentFunction(target, objectName, propertyName, desc.value);
        }
    }

    function instrumentOnPrototype(proto, objectName, propertyName) {
        var desc = Object.getOwnPropertyDescriptor(proto, propertyName);
        if (desc === undefined) { return; }
        if (desc.get !== undefined || desc.set !== undefined) {
            instrumentProperty(proto, objectName, propertyName, desc);
        } else if (typeof desc.value === "function") {
            instrumentFunction(proto, objectName, propertyName, desc.value);
        }
    }

    // Object-addressed targets are hooked via their instance's FIRST
    // prototype (the Fig. 2 pollution); interface-addressed targets are
    // hooked on the interface prototype itself.
    var targets = {
        Navigator: { obj: navigator, onProto: false },
        Screen: { obj: screen, onProto: false },
        Document: { obj: document, onProto: false },
        HTMLCanvasElement: { obj: HTMLCanvasElement.prototype, onProto: true },
        CanvasRenderingContext2D: { obj: CanvasRenderingContext2D.prototype, onProto: true },
        WebGLRenderingContext: { obj: WebGLRenderingContext.prototype, onProto: true },
        AudioContext: { obj: AudioContext.prototype, onProto: true }
    };
    for (var i = 0; i < cfg.apis.length; i++) {
        var api = cfg.apis[i];
        var t = targets[api.iface];
        if (t === undefined) { continue; }
        if (t.onProto) { instrumentOnPrototype(t.obj, api.iface, api.name); }
        else { instrumentObject(t.obj, api.iface, api.name); }
    }

    // Marker globals are installed as logging accessors so the instrument
    // observes scripts probing for them (the Table 6 measurements).
    function attachMarker(obj, prefix, name, value) {
        Object.defineProperty(obj, name, {
            enumerable: true,
            configurable: true,
            get: function () {
                const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
                logValue(prefix + name, "", "get", callContext, logSettings);
                return value;
            }
        });
    }
    // The active build's globals expose real functions; the other versions'
    // names become logging traps returning undefined, so the scan client
    // observes probes for every known OpenWPM marker (Table 6) without
    // changing visible behaviour.
    if (cfg.legacy) {
        attachMarker(window, "window.", "jsInstruments", function jsInstruments() { return true; });
        attachMarker(window, "window.", "instrumentFingerprintingApis", function instrumentFingerprintingApis(settings) { return true; });
        attachMarker(window, "window.", "getInstrumentJS", undefined);
    } else {
        attachMarker(window, "window.", "getInstrumentJS", function getInstrumentJS() { return true; });
        attachMarker(window, "window.", "jsInstruments", undefined);
        attachMarker(window, "window.", "instrumentFingerprintingApis", undefined);
    }

    // Honey properties (Sec. 4.1.3): randomly named bait on navigator and
    // window; only property iterators touch them all.
    for (var h = 0; h < cfg.honey.length; h++) {
        attachMarker(navigator, "honey:", cfg.honey[h], "");
        attachMarker(window, "honey:", cfg.honey[h], "");
    }
})();`

// vanillaProgram is parsed and bytecode-compiled once at init; every realm
// of every visit reuses the same immutable compiled program.
var vanillaProgram = minjs.Compile(minjs.MustParse(vanillaInstrumentJS, InstrumentScriptName))

// Instrumentor is a pluggable JS instrumentation strategy; the vanilla
// JSInstrument and stealth's hardened instrument both implement it.
type Instrumentor interface {
	Name() string
	// OnWindow is called synchronously whenever the browser creates a realm.
	OnWindow(b *browser.Browser, st *Storage, d *jsdom.DOM, top bool)
	// TopInstallError reports whether instrumenting the CURRENT top window
	// failed (e.g. blocked by CSP).
	TopInstallError() error
}

// Operational telemetry counters for the instrument's silent paths. Both
// series appear only once they count something, and never in artifacts.
const (
	// metricInstallFallbacks counts realms that ran vanillaProgram because
	// the install plan could not stand in for it (see installPlan.apply).
	metricInstallFallbacks = "js_instrument_install_fallbacks_total"
	// metricSubframeInstallFailures counts subframe installs that failed
	// (CSP block, script error); the page record tracks the top window only.
	metricSubframeInstallFailures = "js_instrument_subframe_install_failures_total"
)

// forceScriptInstall makes every realm run vanillaProgram instead of taking
// its install plan. It is the seam the package's tests use to compare the
// two (export_test.go); no other build sets it.
var forceScriptInstall bool

// JSInstrument is OpenWPM's vanilla JavaScript instrument.
type JSInstrument struct {
	// Legacy selects the OpenWPM 0.10.0 window globals (jsInstruments and
	// instrumentFingerprintingApis) instead of getInstrumentJS.
	Legacy bool
	// EventID tags instrumentation messages; freshly randomised per attach.
	EventID string
	// HoneyProps are randomly named bait properties added to navigator and
	// window to catch property iterators (Sec. 4.1.3).
	HoneyProps []string

	topErr error
	serial int

	// plan is derived from the first realm and serves every realm built
	// from the same configuration; it is rederived when the fields above
	// change.
	plan *installPlan
}

// Name implements Instrumentor.
func (ji *JSInstrument) Name() string { return "js_instrument" }

// TopInstallError implements Instrumentor.
func (ji *JSInstrument) TopInstallError() error { return ji.topErr }

// newEventID derives the per-session random message id.
func (ji *JSInstrument) newEventID(clientID string) string {
	ji.serial++
	h := uint64(14695981039346656037)
	for _, c := range []byte(fmt.Sprintf("%s-%d", clientID, ji.serial)) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return fmt.Sprintf("openwpm-%08x", uint32(h))
}

// OnWindow installs the instrumentation into a new realm. Top windows are
// instrumented synchronously via DOM injection (CSP applies); subframes a
// tick later — the unobserved-channel window of Sec. 5.4.1.
func (ji *JSInstrument) OnWindow(b *browser.Browser, st *Storage, d *jsdom.DOM, top bool) {
	if ji.EventID == "" {
		ji.EventID = ji.newEventID(b.Opts.ClientID)
	}
	eventID := ji.EventID
	frameURL := d.URL
	d.ListenHostEvent(eventID, func(ev minjs.Value) {
		detail, _ := d.It.GetMember(ev, "detail")
		call := JSCall{
			TopURL:   b.FinalURL(), // host-side: unforgeable
			FrameURL: frameURL,
			Time:     b.Now(),
		}
		if detail.IsObject() {
			get := func(k string) string {
				v, _ := d.It.GetMember(detail, k)
				if v.IsNullish() {
					return ""
				}
				return v.ToString()
			}
			call.Symbol = get("symbol")
			call.Operation = get("operation")
			call.Value = get("value")
			call.Args = get("args")
			call.ScriptURL = get("scriptUrl")
		}
		st.AddJSCall(call)
	})

	if ji.plan == nil || !ji.plan.derivedFrom(ji) {
		ji.plan = deriveInstallPlan(ji, d)
	}
	plan := ji.plan
	legacy, apis, honey := ji.Legacy, plan.apis, plan.honey
	if !plan.servesConfig(d.Cfg) {
		// another build: its API list is an input the plan did not see
		if list := d.InstrumentableAPIs(); !sameAPIs(list, plan.apiList) {
			apis, plan = buildAPITemplate(list), nil
		}
	}
	install := func() error {
		cfg := newInstallCfg(eventID, legacy, apis, honey)
		d.Window.Set("__wpmCfg", minjs.ObjectValue(cfg))
		var replay func() bool
		if !forceScriptInstall {
			replay = func() bool {
				if plan != nil && plan.apply(d, cfg) {
					return true
				}
				b.Opts.Telemetry.Operational(metricInstallFallbacks).Inc()
				return false
			}
		}
		return b.InjectPageProgram(d, vanillaProgram, replay)
	}
	if top {
		ji.topErr = install()
		return
	}
	b.ScheduleTask(d, func() {
		// subframe injection is best-effort by design: the page record's
		// InstrumentInstalled bit tracks the top document only, and a failed
		// subframe realm yields no probe events rather than a broken page
		if err := install(); err != nil {
			b.Opts.Telemetry.Operational(metricSubframeInstallFailures).Inc()
		}
	})
}

// newInstallCfg builds the transient __wpmCfg object the injected script
// consumes (and deletes from window).
func newInstallCfg(eventID string, legacy bool, apis, honey *minjs.Object) *minjs.Object {
	cfg := minjs.NewObject(nil)
	cfg.Set("id", minjs.String(eventID))
	cfg.Set("legacy", minjs.Boolean(legacy))
	cfg.Set("apis", minjs.ObjectValue(apis))
	cfg.Set("honey", minjs.ObjectValue(honey))
	return cfg
}

// buildAPITemplate materialises an API list once as prototype-less objects
// safe to share across realms: the injected script deletes its reference
// before page code runs.
func buildAPITemplate(list []jsdom.APIRef) *minjs.Object {
	apis := minjs.NewArray(nil)
	for _, a := range list {
		o := minjs.NewObject(nil)
		o.Set("iface", minjs.String(a.Interface))
		o.Set("name", minjs.String(a.Name))
		apis.Elems = append(apis.Elems, minjs.ObjectValue(o))
	}
	return apis
}

// sameAPIs reports whether two API lists name the same APIs in order.
func sameAPIs(a, b []jsdom.APIRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Interface != b[i].Interface || a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// installPlan reproduces vanillaProgram's run without executing it. It is
// derived once per instrument and configuration by running the program on a
// private template realm and recording what the run read from the realm,
// what it created and what it defined; vanillaInstrumentJS stays the only
// definition of what gets installed. A later realm gets the recorded effects
// applied natively — the created closures, scopes and objects copied, their
// references to realm objects rebound to that realm's — but only when it
// matches the template on everything the run read (see apply). Any other
// realm runs the program as before.
type installPlan struct {
	// inputs the plan was derived from
	eventID    string
	legacy     bool
	honeyProps []string
	cfg        jsdom.Config
	apiList    []jsdom.APIRef
	// apis and honey are the __wpmCfg members every realm's install shares
	apis, honey *minjs.Object

	// err says why the run could not be captured; the other fields below
	// are unset then, and every realm runs the program.
	err error

	// leaves are the objects the run found in the realm, numbered. The
	// first numbers are the realm roots (see rootLeaves); fixed are objects
	// that are the same in every realm (apis, honey and their members).
	leaves        []leafSig
	fixedIDs      []int
	fixedObjs     []*minjs.Object
	facts         []readFact
	subjects      []int // leaves the run read from or wrote to
	subjectNotExt []bool
	defs          []planDef
	graph         *minjs.Graph
	steps         int64
	allocs        int64
	depth         int
}

// Leaf numbers of the realm roots, bound from the realm itself.
const (
	leafGlobal = iota
	leafObjectProto
	leafFunctionProto
	leafArrayProto
	leafErrorProto
	leafStringProto
	leafNumberProto
	leafBooleanProto
	leafCfg // the realm's own __wpmCfg object
	rootLeaves
)

func realmRoots(it *minjs.Interp, cfg *minjs.Object) [rootLeaves]*minjs.Object {
	p := it.Protos
	return [rootLeaves]*minjs.Object{it.Global, p.Object, p.Function, p.Array, p.Error, p.String, p.Number, p.Boolean, cfg}
}

// leafSig is what binding a realm object to a leaf requires of it: the
// same function kind (host, script or none) and host-function name. Host
// functions of one name behave alike in every realm, which is what lets
// the run's calls to them be replayed; whether an object is callable is
// what typeof tells the run. Nothing else about a leaf reaches the run
// unobserved: its properties and prototype only through facts, and its
// class only through conversions, which make a run uncapturable.
type leafSig struct {
	native string
	kind   uint8 // 0 not callable, 1 host function, 2 script function
}

func sigOf(o *minjs.Object) leafSig {
	if name, ok := o.HostFunction(); ok {
		return leafSig{native: name, kind: 1}
	}
	if lit, _ := o.Closure(); lit != nil {
		return leafSig{kind: 2}
	}
	return leafSig{}
}

// readFact is one piece of realm state the run read: the own property key
// of leaf subject, or with proto set its prototype link (in ref). The want
// fields hold the template's state before the run, leaf numbers for objects
// and -1 for none.
type readFact struct {
	subject int
	key     string
	proto   bool

	present  bool
	accessor bool
	enum     bool
	writable bool
	config   bool
	value    minjs.Value // a primitive unless ref names a leaf
	ref      int
	get, set int
}

// planDef is one definition the run made on a realm object: key deleted
// (slot -1) or defined as the graph's root slot.
type planDef struct {
	target int
	key    string
	slot   int
}

// derivedFrom reports whether the plan was derived for ji's current inputs.
func (p *installPlan) derivedFrom(ji *JSInstrument) bool {
	if p.eventID != ji.EventID || p.legacy != ji.Legacy || len(p.honeyProps) != len(ji.HoneyProps) {
		return false
	}
	for i, h := range ji.HoneyProps {
		if p.honeyProps[i] != h {
			return false
		}
	}
	return true
}

// servesConfig reports whether realms built from c are built like the
// template. Only the window index may differ: it moves the window, which
// the run never reads.
func (p *installPlan) servesConfig(c jsdom.Config) bool {
	c.WindowIndex = p.cfg.WindowIndex
	return reflect.DeepEqual(c, p.cfg)
}

// deriveInstallPlan builds a template realm like d and records
// vanillaProgram's run on it. The plan always carries the shared __wpmCfg
// members; its err is set when the run cannot be captured.
func deriveInstallPlan(ji *JSInstrument, d *jsdom.DOM) *installPlan {
	tmpl := jsdom.Build(d.Cfg, &jsdom.NopHost{}, d.URL)
	p := &installPlan{
		eventID:    ji.EventID,
		legacy:     ji.Legacy,
		honeyProps: append([]string(nil), ji.HoneyProps...),
		cfg:        d.Cfg,
		apiList:    tmpl.InstrumentableAPIs(),
		honey:      minjs.NewArray(nil),
	}
	for i := range p.apiList {
		p.apiList[i].Proto = nil // the plan must not keep the template realm alive
	}
	p.apis = buildAPITemplate(p.apiList)
	for _, h := range ji.HoneyProps {
		p.honey.Elems = append(p.honey.Elems, minjs.String(h))
	}
	cfg := newInstallCfg(p.eventID, p.legacy, p.apis, p.honey)
	tmpl.Window.Set("__wpmCfg", minjs.ObjectValue(cfg))
	p.err = p.capture(tmpl.It, cfg)
	return p
}

// errUncapturable reports a run whose effects the plan cannot reproduce.
var errUncapturable = errors.New("openwpm: instrument run depends on state the plan cannot check")

// capture runs vanillaProgram on the template realm it, whose __wpmCfg is
// already set to cfg, and fills in the plan.
func (p *installPlan) capture(it *minjs.Interp, cfg *minjs.Object) error {
	ids := map[*minjs.Object]int{}
	for i, o := range realmRoots(it, cfg) {
		ids[o] = i
		p.leaves = append(p.leaves, sigOf(o))
	}
	// the shared __wpmCfg members are host-owned and read-only to the run:
	// they are fixed leaves, never realm state
	fixed := map[*minjs.Object]bool{p.apis: true, p.honey: true}
	for _, e := range p.apis.Elems {
		fixed[e.Obj] = true
	}
	fixed[cfg] = true
	pre, order, ok := snapshotRealm(it, fixed)
	if !ok {
		return errUncapturable
	}
	leaf := func(o *minjs.Object) (int, bool) {
		if id, ok := ids[o]; ok {
			return id, true
		}
		if pre[o] == nil && !fixed[o] {
			return 0, false
		}
		id := len(p.leaves)
		ids[o] = id
		p.leaves = append(p.leaves, sigOf(o))
		if fixed[o] {
			p.fixedIDs = append(p.fixedIDs, id)
			p.fixedObjs = append(p.fixedObjs, o)
		}
		return id, true
	}
	leafOrNone := func(o *minjs.Object) int {
		if o == nil {
			return -1
		}
		id, _ := leaf(o)
		return id
	}

	rec := &runRecorder{pre: pre, seen: map[readKey]bool{}}
	it.Tracer = rec
	allocs0 := it.Allocs()
	_, err := it.RunProgram(vanillaProgram)
	it.Tracer = nil
	if err != nil {
		return err
	}
	if rec.opaque {
		return errUncapturable
	}
	p.steps, p.allocs, p.depth = it.Steps(), it.Allocs()-allocs0, rec.depth

	isSubject := map[int]bool{}
	for _, k := range rec.reads {
		s := pre[k.o]
		if k.o.Class == "Array" {
			return errUncapturable // elements are not compared
		}
		f := readFact{subject: leafOrNone(k.o), key: k.key, proto: k.proto, ref: -1, get: -1, set: -1}
		if k.proto {
			f.ref = leafOrNone(s.proto)
		} else if sp, ok := s.props[k.key]; ok {
			f.present, f.accessor, f.enum, f.writable, f.config = true, sp.val.Accessor, sp.val.Enumerable, sp.val.Writable, sp.val.Configurable
			f.get, f.set = leafOrNone(sp.val.Get), leafOrNone(sp.val.Set)
			if sp.val.Value.IsObject() {
				f.ref = leafOrNone(sp.val.Value.Obj)
			} else {
				f.value = sp.val.Value
			}
		}
		p.facts = append(p.facts, f)
		if !isSubject[f.subject] {
			isSubject[f.subject] = true
			p.subjects = append(p.subjects, f.subject)
			p.subjectNotExt = append(p.subjectNotExt, k.o.NotExtensible)
		}
	}

	var roots []*minjs.Property
	for _, o := range order {
		defs, slots, ok := diffObject(o, pre[o])
		if !ok {
			return errUncapturable
		}
		if len(defs) == 0 {
			continue
		}
		target := leafOrNone(o)
		if !isSubject[target] {
			return errUncapturable // written without being read
		}
		for i, def := range defs {
			def.target = target
			if slots[i] != nil {
				def.slot = len(roots)
				roots = append(roots, slots[i])
			}
			p.defs = append(p.defs, def)
		}
	}
	if p.graph, err = minjs.CaptureGraph(roots, leaf); err != nil {
		return err
	}
	if !p.bindsEveryLeaf() {
		return errUncapturable
	}
	return nil
}

// bindsEveryLeaf checks that apply can bind every leaf: walking the facts in
// order from the realm roots, each fact's subject must already be bound, and
// by the end every leaf the definitions and the graph refer to must be.
func (p *installPlan) bindsEveryLeaf() bool {
	bound := make([]bool, len(p.leaves))
	for i := 0; i < rootLeaves; i++ {
		bound[i] = true
	}
	for _, id := range p.fixedIDs {
		bound[id] = true
	}
	for _, f := range p.facts {
		if !bound[f.subject] {
			return false
		}
		for _, id := range [...]int{f.ref, f.get, f.set} {
			if id >= 0 {
				bound[id] = true
			}
		}
	}
	for _, b := range bound {
		if !b {
			return false
		}
	}
	return true
}

// apply reproduces the run on realm d, whose __wpmCfg is already set to
// cfg, and reports whether it did. It declines, leaving d untouched, unless
// d matches the template on every fact — the own properties and prototype
// links the run read, compared by value, with realm objects bound to leaves
// by class and host-function name — and the run would complete in d from
// where it starts: within the step and recursion limits, with no hooks
// observing reads. It does not assume that no script has run in d: a
// subframe's parent reaches into the frame before its install tick.
func (p *installPlan) apply(d *jsdom.DOM, cfg *minjs.Object) bool {
	it := d.It
	if p.err != nil || it.PropAccessHook != nil || it.EvalHook != nil || it.Tracer != nil ||
		!it.ReplayFits(p.steps, p.depth) {
		return false
	}
	leaves := make([]*minjs.Object, len(p.leaves))
	roots := realmRoots(it, cfg)
	copy(leaves, roots[:])
	for i, id := range p.fixedIDs {
		leaves[id] = p.fixedObjs[i]
	}
	for i := range p.facts {
		if !p.holds(&p.facts[i], leaves) {
			return false
		}
	}
	// the run wrote through subjects, so two of them sharing one object in
	// d would let a write show through another's later read; and an
	// assignment that adds a property reads extensibility
	for i, a := range p.subjects {
		if leaves[a].NotExtensible != p.subjectNotExt[i] {
			return false
		}
		for _, b := range p.subjects[i+1:] {
			if leaves[a] == leaves[b] {
				return false
			}
		}
	}
	slots := p.graph.Instantiate(it, leaves)
	for _, def := range p.defs {
		if def.slot < 0 {
			leaves[def.target].Delete(def.key)
		} else {
			leaves[def.target].DefineProperty(def.key, &slots[def.slot])
		}
	}
	it.Charge(p.steps, p.allocs)
	return true
}

// holds reports whether fact f holds in the realm whose leaves are being
// bound, binding leaves on first sight.
func (p *installPlan) holds(f *readFact, leaves []*minjs.Object) bool {
	subject := leaves[f.subject]
	if f.proto {
		return p.bind(leaves, f.ref, subject.Proto)
	}
	prop := subject.GetOwn(f.key)
	if prop == nil || !f.present {
		return prop == nil && !f.present
	}
	if prop.Accessor != f.accessor || prop.Enumerable != f.enum || prop.Writable != f.writable || prop.Configurable != f.config {
		return false
	}
	if f.accessor {
		return p.bind(leaves, f.get, prop.Get) && p.bind(leaves, f.set, prop.Set)
	}
	if f.ref >= 0 {
		return prop.Value.IsObject() && p.bind(leaves, f.ref, prop.Value.Obj)
	}
	return sameValue(prop.Value, f.value)
}

// sameValue reports whether a and b are the same value, NaN included.
func sameValue(a, b minjs.Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && a.Obj == b.Obj && a.Bool == b.Bool &&
		math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

// sameProp reports whether two property slots hold the same state.
func sameProp(a, b minjs.Property) bool {
	return sameValue(a.Value, b.Value) && a.Get == b.Get && a.Set == b.Set && a.Accessor == b.Accessor &&
		a.Enumerable == b.Enumerable && a.Writable == b.Writable && a.Configurable == b.Configurable
}

// bind checks realm object o against leaf id (-1: no object), binding it
// on first sight.
func (p *installPlan) bind(leaves []*minjs.Object, id int, o *minjs.Object) bool {
	if id < 0 || o == nil {
		return id < 0 && o == nil
	}
	if leaves[id] != nil {
		return leaves[id] == o
	}
	if sigOf(o) != p.leaves[id] {
		return false
	}
	leaves[id] = o
	return true
}

// readKey is one thing the run read: o's own property key, or its
// prototype link.
type readKey struct {
	o     *minjs.Object
	key   string
	proto bool
}

// runRecorder is the minjs.Tracer of the template run: it keeps the first
// read of each piece of pre-existing realm state, in order.
type runRecorder struct {
	pre    map[*minjs.Object]*objSnap
	seen   map[readKey]bool
	reads  []readKey
	depth  int
	opaque bool
}

func (r *runRecorder) OwnRead(o *minjs.Object, key string) { r.note(readKey{o: o, key: key}) }
func (r *runRecorder) ProtoRead(o *minjs.Object)           { r.note(readKey{o: o, proto: true}) }
func (r *runRecorder) Opaque()                             { r.opaque = true }

func (r *runRecorder) Call(_ *minjs.Object, depth int) {
	if depth > r.depth {
		r.depth = depth
	}
}

func (r *runRecorder) note(k readKey) {
	if r.pre[k.o] == nil || r.seen[k] {
		return
	}
	r.seen[k] = true
	r.reads = append(r.reads, k)
}

// objSnap is an object's own state before the run.
type objSnap struct {
	keys   []string
	props  map[string]snapProp
	proto  *minjs.Object
	notExt bool
	elems  []minjs.Value
}

type snapProp struct {
	ptr *minjs.Property
	val minjs.Property
}

// snapshotRealm records the own state of every object reachable from the
// realm's roots, stopping at the fixed objects, and returns it with the
// objects in walk order. It reports false when the realm already holds
// script functions, whose scopes the snapshot cannot see.
func snapshotRealm(it *minjs.Interp, fixed map[*minjs.Object]bool) (map[*minjs.Object]*objSnap, []*minjs.Object, bool) {
	pre := map[*minjs.Object]*objSnap{}
	var order []*minjs.Object
	var queue []*minjs.Object
	visit := func(o *minjs.Object) {
		if o != nil && !fixed[o] && pre[o] == nil {
			pre[o] = &objSnap{}
			queue = append(queue, o)
		}
	}
	for _, o := range realmRoots(it, nil) {
		visit(o)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		order = append(order, o)
		if lit, _ := o.Closure(); lit != nil {
			return nil, nil, false
		}
		s := pre[o]
		s.proto, s.notExt = o.Proto, o.NotExtensible
		s.elems = append([]minjs.Value(nil), o.Elems...)
		s.keys, s.props = ownSlots(o)
		visit(o.Proto)
		for _, k := range s.keys {
			sp := s.props[k]
			visit(sp.val.Get)
			visit(sp.val.Set)
			if sp.val.Value.IsObject() {
				visit(sp.val.Value.Obj)
			}
		}
		for _, e := range o.Elems {
			if e.IsObject() {
				visit(e.Obj)
			}
		}
	}
	return pre, order, true
}

// ownSlots lists o's own property slots in order (array elements aside).
func ownSlots(o *minjs.Object) ([]string, map[string]snapProp) {
	var keys []string
	props := map[string]snapProp{}
	for _, k := range o.OwnKeys(false) {
		if p := o.GetOwn(k); p != nil {
			keys = append(keys, k)
			props[k] = snapProp{ptr: p, val: *p}
		}
	}
	return keys, props
}

// diffObject compares o with its state before the run and returns the run's
// definitions on it: deletions first, then the new or replaced slots in
// property order. It reports false for changes a replay of definitions
// cannot reproduce: a rewritten prototype link, extensibility or element, a
// slot changed in place, or a property order that deletions and
// definitions alone would not produce.
func diffObject(o *minjs.Object, s *objSnap) ([]planDef, []*minjs.Property, bool) {
	if o.Proto != s.proto || o.NotExtensible != s.notExt || len(o.Elems) != len(s.elems) {
		return nil, nil, false
	}
	for i, e := range o.Elems {
		if !sameValue(e, s.elems[i]) {
			return nil, nil, false
		}
	}
	keys, props := ownSlots(o)
	var defs []planDef
	var slots []*minjs.Property
	var kept []string
	for _, k := range s.keys {
		if _, ok := props[k]; ok {
			kept = append(kept, k)
		} else {
			defs = append(defs, planDef{key: k, slot: -1})
			slots = append(slots, nil)
		}
	}
	for i, k := range keys {
		before, existed := s.props[k]
		if existed != (i < len(kept)) || existed && kept[i] != k {
			return nil, nil, false
		}
		now := props[k]
		if existed && before.ptr == now.ptr {
			if !sameProp(*now.ptr, before.val) {
				return nil, nil, false
			}
			continue
		}
		defs = append(defs, planDef{key: k})
		slots = append(slots, now.ptr)
	}
	return defs, slots, true
}
