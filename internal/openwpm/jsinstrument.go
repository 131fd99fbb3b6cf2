package openwpm

import (
	"fmt"

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

	// apisTemplate caches the API list as realm-independent minjs objects
	// (nil prototypes): the list is identical for every realm of an OS
	// build, and the injected script deletes its reference before page
	// code runs.
	apisTemplate *minjs.Object
	honeyArr     *minjs.Object
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

	if ji.apisTemplate == nil {
		ji.apisTemplate = buildAPITemplate(d)
		ji.honeyArr = minjs.NewArray(nil)
		for _, h := range ji.HoneyProps {
			ji.honeyArr.Elems = append(ji.honeyArr.Elems, minjs.String(h))
		}
	}
	install := func() error {
		cfg := minjs.NewObject(nil)
		cfg.Set("id", minjs.String(eventID))
		cfg.Set("legacy", minjs.Boolean(ji.Legacy))
		cfg.Set("apis", minjs.ObjectValue(ji.apisTemplate))
		cfg.Set("honey", minjs.ObjectValue(ji.honeyArr))
		d.Window.Set("__wpmCfg", minjs.ObjectValue(cfg))
		return b.InjectPageProgram(d, vanillaProgram)
	}
	if top {
		ji.topErr = install()
		return
	}
	b.ScheduleTask(d, func() {
		// subframe injection is best-effort by design: the page record's
		// InstrumentInstalled bit tracks the top document only, and a failed
		// subframe realm yields no probe events rather than a broken page
		_ = install()
	})
}

// setWpmCfg provisions the transient __wpmCfg global the injected script
// consumes (and deletes).
// buildAPITemplate materialises the API list once as prototype-less objects
// safe to share across realms.
func buildAPITemplate(d *jsdom.DOM) *minjs.Object {
	apis := minjs.NewArray(nil)
	for _, a := range d.InstrumentableAPIs() {
		o := minjs.NewObject(nil)
		o.Set("iface", minjs.String(a.Interface))
		o.Set("name", minjs.String(a.Name))
		apis.Elems = append(apis.Elems, minjs.ObjectValue(o))
	}
	return apis
}
