// Package browser drives a simulated Firefox: it loads documents over an
// injectable transport, executes their scripts in minjs realms built by
// jsdom, enforces Content Security Policy, maintains a persistent cookie
// jar, and runs an event loop over virtual time. Instrumentation (packages
// openwpm and stealth) attaches through the OnWindowCreated and OnRequest
// hooks, exactly where a WebExtension would sit.
package browser

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/scriptcache"
	"gullible/internal/telemetry"
)

// ErrCSPBlocked is returned by InjectPageProgram when the page's CSP forbids
// DOM script injection.
var ErrCSPBlocked = errors.New("browser: script injection blocked by Content Security Policy")

// ErrVisitBudget is returned when a visit exhausts MaxVisitSeconds of
// virtual time — the watchdog verdict on hung or tarpitted pages.
var ErrVisitBudget = errors.New("browser: visit exceeded MaxVisitSeconds (watchdog)")

// ErrRedirectLoop is returned when a document chain exceeds MaxRedirects.
var ErrRedirectLoop = errors.New("browser: too many redirects")

// StatusError reports a main document that answered with an error status.
// It is deterministic server behaviour, not a flake, so the framework layer
// classifies it as permanent.
type StatusError struct {
	URL    string
	Status int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("browser: document %s returned status %d", e.URL, e.Status)
}

// Options configures a Browser.
type Options struct {
	Config    jsdom.Config
	Transport httpsim.RoundTripper
	// ClientID is a stable per-machine identity, standing in for the
	// client's IP address.
	ClientID string
	// DwellSeconds is how long the browser idles on a page after load
	// (the paper's crawls use 60 s).
	DwellSeconds float64
	// MaxVisitSeconds caps the virtual time one visit may consume; 0
	// disables the watchdog. When the budget runs out the visit aborts with
	// ErrVisitBudget but keeps whatever it captured so far.
	MaxVisitSeconds float64
	MaxRedirects    int
	// MaxFrameDepth bounds nested frame creation.
	MaxFrameDepth int
	// Telemetry, when non-nil, records page-load / script-exec /
	// http-exchange spans over the virtual clock, watchdog events and
	// interpreter work counters. Nil costs a nil check per site.
	Telemetry *telemetry.Telemetry
}

// ScriptRecord is one JavaScript payload the browser executed.
type ScriptRecord struct {
	URL      string // source URL, or document URL + "#inline"
	Source   string
	Inline   bool
	FrameURL string // document that ran it
}

// VisitResult summarises one page visit.
type VisitResult struct {
	RequestedURL string
	FinalURL     string
	OffDomain    bool // a redirect left the requested eTLD+1
	Links        []string
	CSPReports   int
	ScriptErrors []string
	// Aborted marks a visit cut short by a crash or the visit watchdog;
	// the other fields hold whatever was captured before the abort.
	Aborted bool
}

// Browser is one simulated browser instance. Not safe for concurrent use.
type Browser struct {
	Opts Options
	Jar  *CookieJar

	// OnRequest observes every request/response pair (the HTTP instrument).
	OnRequest func(req *httpsim.Request, resp *httpsim.Response)
	// OnWindowCreated fires synchronously whenever a realm is created —
	// before any page script runs in it. top marks the top-level document.
	// This is the attachment point for JS instrumentation.
	OnWindowCreated func(d *jsdom.DOM, top bool)
	// OnCookieStored observes jar writes (the cookie instrument).
	OnCookieStored func(rec CookieRecord)

	// Top is the current top-level document, valid during and after Visit.
	Top *jsdom.DOM

	// Scripts lists every script payload executed during the current visit.
	Scripts []ScriptRecord

	// SpanParent is the telemetry span id the next page-load span nests
	// under (the framework layer's visit span); 0 means root.
	SpanParent int64

	tel       *telemetry.Telemetry
	visitSpan int64
	// pre-resolved metric handles; nil when telemetry is off, so the hot
	// paths pay one nil check per update
	mTimerFires    *telemetry.Counter
	mWatchdogFires *telemetry.Counter
	mScriptErrors  *telemetry.Counter
	mInterpSteps   *telemetry.Counter
	mInterpAllocs  *telemetry.Counter

	clockMS      float64
	visitStartMS float64
	abortErr     error
	timers       []*timer
	timerSeq     int

	csp        CSP
	visitURL   string
	finalURL   string
	links      []string
	cspReports int
	scriptErrs []string
	windowIdx  int
}

type timer struct {
	id   int
	at   float64
	seq  int
	fn   *minjs.Object
	args []minjs.Value
	dom  *jsdom.DOM
	gone bool
}

// New creates a browser.
func New(opts Options) *Browser {
	if opts.DwellSeconds == 0 {
		opts.DwellSeconds = 60
	}
	if opts.MaxRedirects == 0 {
		opts.MaxRedirects = 5
	}
	if opts.MaxFrameDepth == 0 {
		opts.MaxFrameDepth = 4
	}
	if opts.ClientID == "" {
		opts.ClientID = "client-0"
	}
	b := &Browser{Opts: opts, Jar: NewCookieJar()}
	if tel := opts.Telemetry; tel.Enabled() {
		b.tel = tel
		b.mTimerFires = tel.Counter("browser_timer_fires_total")
		b.mWatchdogFires = tel.Counter("browser_watchdog_fires_total")
		b.mScriptErrors = tel.Counter("browser_script_errors_total")
		b.mInterpSteps = tel.Counter("interp_steps_total")
		b.mInterpAllocs = tel.Counter("interp_allocs_total")
	}
	return b
}

// Now returns the browser's virtual clock in milliseconds.
func (b *Browser) Now() float64 { return b.clockMS }

// Visit loads url, executes the page, idles for the configured dwell time,
// and returns a summary. The cookie jar and clock persist across visits.
func (b *Browser) Visit(url string) (*VisitResult, error) {
	b.visitURL = url
	b.finalURL = url
	b.links = nil
	b.cspReports = 0
	b.scriptErrs = nil
	b.Scripts = nil
	b.timers = nil
	b.visitStartMS = b.clockMS
	b.abortErr = nil
	visitOutcome := "error"
	if b.tel.Enabled() {
		b.visitSpan = b.tel.Begin("page-load", b.SpanParent, b.clockMS, telemetry.L("url", url))
		defer func() {
			b.tel.End(b.visitSpan, "page-load", b.clockMS, telemetry.L("outcome", visitOutcome))
			b.visitSpan = 0
		}()
	}

	resp, finalURL, err := b.fetchDocument(url, httpsim.TypeMainFrame)
	if err != nil {
		return nil, fmt.Errorf("browser: visiting %s: %w", url, err)
	}
	if resp.Status >= 400 {
		// a deterministic server-side refusal: surface it as permanent
		// rather than silently executing an error page
		return nil, fmt.Errorf("browser: visiting %s: %w", url, &StatusError{URL: finalURL, Status: resp.Status})
	}
	b.finalURL = finalURL
	b.csp = ParseCSP(resp.Header("Content-Security-Policy"))

	top := b.newWindow(finalURL, true, nil)
	b.Top = top
	b.loadHTML(top, resp.Body)
	if b.abortErr == nil {
		b.Idle(b.Opts.DwellSeconds)
	}

	res := &VisitResult{
		RequestedURL: url,
		FinalURL:     finalURL,
		OffDomain:    !httpsim.SameSite(url, finalURL),
		Links:        b.links,
		CSPReports:   b.cspReports,
		ScriptErrors: b.scriptErrs,
		Aborted:      b.abortErr != nil,
	}
	b.mScriptErrors.Add(int64(len(b.scriptErrs)))
	if b.abortErr != nil {
		visitOutcome = "aborted"
		// partial result: the caller decides whether to salvage it
		return res, fmt.Errorf("browser: visiting %s: %w", url, b.abortErr)
	}
	visitOutcome = "ok"
	return res, nil
}

// fetchDocument fetches a document URL following redirects.
func (b *Browser) fetchDocument(url string, rtype httpsim.ResourceType) (*httpsim.Response, string, error) {
	cur := url
	for i := 0; i <= b.Opts.MaxRedirects; i++ {
		resp, err := b.fetch(cur, rtype, "GET", "")
		if err != nil {
			return nil, cur, err
		}
		if resp.Status == 301 || resp.Status == 302 || resp.Status == 307 {
			loc := resp.Header("Location")
			if loc == "" {
				return resp, cur, nil
			}
			cur = httpsim.Resolve(cur, loc)
			continue
		}
		return resp, cur, nil
	}
	return nil, cur, ErrRedirectLoop
}

// fetch performs one request through the transport, stores cookies and fires
// the request hook.
func (b *Browser) fetch(url string, rtype httpsim.ResourceType, method, body string) (*httpsim.Response, error) {
	if b.abortErr != nil {
		return nil, b.abortErr
	}
	if b.budgetExhausted() {
		b.abortErr = ErrVisitBudget
		b.noteWatchdogFire(url)
		return nil, ErrVisitBudget
	}
	var span int64
	if b.tel.Enabled() {
		span = b.tel.Begin("http-exchange", b.visitSpan, b.clockMS,
			telemetry.L("url", url), telemetry.L("type", string(rtype)))
	}
	req := &httpsim.Request{
		Method:   method,
		URL:      url,
		Type:     rtype,
		Headers:  map[string]string{},
		Body:     body,
		ClientID: b.Opts.ClientID,
		TopURL:   b.finalURL,
		Time:     b.clockMS,
	}
	req.Headers["User-Agent"] = b.Opts.Config.UserAgent
	if ck := b.Jar.HeaderFor(url); ck != "" {
		req.Headers["Cookie"] = ck
	}
	resp, err := b.Opts.Transport.RoundTrip(req)
	if err != nil {
		// some failures consume virtual time before surfacing (hangs burn
		// the watchdog budget) or kill the whole visit (crashes); both are
		// expressed through optional interfaces so the transport layer needs
		// no dependency on the fault package
		if vc, ok := err.(interface{ VirtualCost() float64 }); ok {
			b.chargeSeconds(vc.VirtualCost())
		}
		if ab, ok := err.(interface{ AbortsVisit() bool }); ok && ab.AbortsVisit() {
			b.abortErr = err
		}
		if span != 0 {
			b.tel.End(span, "http-exchange", b.clockMS, telemetry.L("status", "error"))
		}
		if b.OnRequest != nil {
			b.OnRequest(req, nil)
		}
		return nil, err
	}
	if resp.DelaySeconds > 0 {
		b.chargeSeconds(resp.DelaySeconds)
		if b.budgetExhausted() {
			// the response arrived only after the watchdog gave up
			b.abortErr = ErrVisitBudget
			b.noteWatchdogFire(url)
			if span != 0 {
				b.tel.End(span, "http-exchange", b.clockMS, telemetry.L("status", "watchdog"))
			}
			if b.OnRequest != nil {
				b.OnRequest(req, nil)
			}
			return nil, ErrVisitBudget
		}
	}
	before := len(b.Jar.History)
	b.Jar.StoreFromResponse(resp, url, b.finalURL, b.clockMS)
	if b.OnCookieStored != nil {
		for _, rec := range b.Jar.History[before:] {
			b.OnCookieStored(rec)
		}
	}
	if b.OnRequest != nil {
		b.OnRequest(req, resp)
	}
	if span != 0 {
		b.tel.End(span, "http-exchange", b.clockMS, telemetry.L("status", fmt.Sprint(resp.Status)))
	}
	return resp, nil
}

// noteWatchdogFire records the visit watchdog aborting the current visit.
func (b *Browser) noteWatchdogFire(url string) {
	b.mWatchdogFires.Inc()
	if b.tel.Enabled() {
		b.tel.Event(telemetry.LevelWarn, "watchdog-fire", b.clockMS,
			telemetry.L("url", url), telemetry.L("visit", b.visitURL))
	}
}

// chargeSeconds advances the virtual clock by server latency, clamped so a
// single slow response cannot overshoot far past the visit budget.
func (b *Browser) chargeSeconds(s float64) {
	if s <= 0 {
		return
	}
	ms := s * 1000
	if b.Opts.MaxVisitSeconds > 0 {
		end := b.visitStartMS + b.Opts.MaxVisitSeconds*1000
		if b.clockMS+ms > end {
			b.clockMS = end
			return
		}
	}
	b.clockMS += ms
}

// budgetExhausted reports whether the current visit has used up its budget.
func (b *Browser) budgetExhausted() bool {
	return b.Opts.MaxVisitSeconds > 0 && b.clockMS-b.visitStartMS >= b.Opts.MaxVisitSeconds*1000
}

// AbortError returns the error that aborted the current visit, if any.
func (b *Browser) AbortError() error { return b.abortErr }

// newWindow creates a realm for a document and fires the window hook.
func (b *Browser) newWindow(url string, top bool, parent *jsdom.DOM) *jsdom.DOM {
	cfg := b.Opts.Config
	cfg.WindowIndex += b.windowIdx
	fh := &frameHost{b: b}
	d := jsdom.Build(cfg, fh, url)
	fh.dom = d
	d.It.StepLimit = 2_000_000
	d.It.Reseed(seedFor(b.Opts.ClientID, url))
	if parent != nil {
		d.Parent = parent
	}
	if b.OnWindowCreated != nil {
		b.OnWindowCreated(d, top)
	}
	return d
}

func seedFor(clientID, url string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(clientID); i++ {
		h = (h ^ uint64(clientID[i])) * 1099511628211
	}
	for i := 0; i < len(url); i++ {
		h = (h ^ uint64(url[i])) * 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// loadHTML processes a document's markup inside realm d: fetches
// subresources, registers elements, runs scripts.
func (b *Browser) loadHTML(d *jsdom.DOM, body string) {
	docHost := httpsim.Host(d.URL)
	for _, item := range ParseHTML(body) {
		if b.abortErr != nil && item.Tag != "a" {
			// aborted: no further fetches or script execution, but anchor
			// harvesting is pure parsing and feeds partial-result salvage
			continue
		}
		switch item.Tag {
		case "script":
			if src := item.Attrs["src"]; src != "" {
				url := httpsim.Resolve(d.URL, src)
				if b.csp.Present && !b.csp.AllowsScriptFrom(httpsim.Host(url), docHost) {
					b.reportCSPViolation()
					continue
				}
				resp, err := b.fetch(url, httpsim.TypeScript, "GET", "")
				if err != nil || resp.Status != 200 {
					continue
				}
				b.runScript(d, resp.Body, url, false)
				continue
			}
			if b.csp.Present && !b.csp.AllowsInline() {
				b.reportCSPViolation()
				continue
			}
			b.runScript(d, item.Inline, d.URL+"#inline", true)
		case "img":
			if src := item.Attrs["src"]; src != "" {
				b.fetch(httpsim.Resolve(d.URL, src), httpsim.TypeImage, "GET", "")
			}
			if srcset := item.Attrs["srcset"]; srcset != "" {
				first := strings.Fields(strings.Split(srcset, ",")[0])
				if len(first) > 0 {
					b.fetch(httpsim.Resolve(d.URL, first[0]), httpsim.TypeImageset, "GET", "")
				}
			}
		case "link":
			href := item.Attrs["href"]
			if href == "" {
				continue
			}
			rtype := httpsim.TypeStylesheet
			if item.Attrs["as"] == "font" {
				rtype = httpsim.TypeFont
			}
			b.fetch(httpsim.Resolve(d.URL, href), rtype, "GET", "")
		case "video", "audio":
			if src := item.Attrs["src"]; src != "" {
				b.fetch(httpsim.Resolve(d.URL, src), httpsim.TypeMedia, "GET", "")
			}
		case "object", "embed":
			if src := item.Attrs["data"] + item.Attrs["src"]; src != "" {
				b.fetch(httpsim.Resolve(d.URL, src), httpsim.TypeObject, "GET", "")
			}
		case "iframe":
			src := item.Attrs["src"]
			if src == "" {
				src = "about:blank"
			} else {
				src = httpsim.Resolve(d.URL, src)
			}
			if fd, err := b.createFrame(d, src); err == nil && fd != nil {
				fd.Parent = d
				d.Frames = append(d.Frames, fd)
			}
		case "a":
			if href := item.Attrs["href"]; href != "" && d.Parent == nil {
				b.links = append(b.links, httpsim.Resolve(d.URL, href))
			}
		default:
			if id := item.Attrs["id"]; id != "" {
				d.RegisterElement(item.Tag, id)
			}
		}
	}
}

// cachedParse reuses parsed, bytecode-compiled programs across visits for
// identical script content — third-party scripts repeat across thousands of
// sites, and compiled code is read-only at evaluation time, so sharing is
// safe. The shared cache is content-addressed by full SHA-256 with
// source-equality verification on hit (a truncated fingerprint here once
// served one script's AST for another's body) and bounded by LRU eviction.
func cachedParse(source, url string) (*minjs.Program, error) {
	// the URL is part of the key: stack traces and call attribution carry
	// the program name, which must match the fetched URL
	return scriptcache.Shared.Program(source, url)
}

// runScript executes a script payload in realm d, recording it and capturing
// uncaught errors.
func (b *Browser) runScript(d *jsdom.DOM, source, url string, inline bool) {
	b.Scripts = append(b.Scripts, ScriptRecord{URL: url, Source: source, Inline: inline, FrameURL: d.URL})
	prog, err := cachedParse(source, url)
	if err != nil {
		b.scriptErrs = append(b.scriptErrs, err.Error())
		return
	}
	if !b.tel.Enabled() {
		if _, err := d.It.RunProgram(prog); err != nil {
			b.scriptErrs = append(b.scriptErrs, err.Error())
		}
		return
	}
	span := b.tel.Begin("script-exec", b.visitSpan, b.clockMS, telemetry.L("url", url))
	allocs0 := d.It.Allocs()
	_, err = d.It.RunProgram(prog)
	if err != nil {
		b.scriptErrs = append(b.scriptErrs, err.Error())
	}
	// Steps() is this program's cost: RunProgram starts a fresh count, except
	// for a script another script document.write()s in, which shares (and
	// reports) its writer's running count. allocs is cumulative, so take the
	// delta
	b.mInterpSteps.Add(d.It.Steps())
	b.mInterpAllocs.Add(d.It.Allocs() - allocs0)
	b.tel.End(span, "script-exec", b.clockMS, telemetry.L("steps", fmt.Sprint(d.It.Steps())))
}

// createFrame builds a subframe realm for src. The frame's own content loads
// on the next event-loop turn; the window hook has already fired, so
// instrumentation that installs synchronously covers even immediate access
// by the parent, while instrumentation that defers does not (Sec. 5.4.1).
// Nesting depth derives from the parent chain, so self-embedding pages
// terminate even though frame content loads asynchronously.
func (b *Browser) createFrame(parent *jsdom.DOM, src string) (*jsdom.DOM, error) {
	depth := 0
	for p := parent; p != nil; p = p.Parent {
		depth++
	}
	if depth >= b.Opts.MaxFrameDepth {
		return nil, fmt.Errorf("browser: frame depth limit")
	}
	var body string
	if src != "about:blank" {
		resp, err := b.fetch(src, httpsim.TypeSubFrame, "GET", "")
		if err == nil && resp.Status == 200 {
			body = resp.Body
		}
	}
	d := b.newWindow(src, false, parent)
	if body != "" {
		content := body
		b.scheduleHostTask(d, func() {
			b.loadHTML(d, content)
		})
	}
	return d, nil
}

// scheduleHostTask queues a Go-side task on the event loop.
func (b *Browser) scheduleHostTask(d *jsdom.DOM, task func()) {
	fn := d.It.NewNative("", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		task()
		return minjs.Undefined(), nil
	})
	b.addTimer(d, fn, nil, 0)
}

func (b *Browser) addTimer(d *jsdom.DOM, fn *minjs.Object, args []minjs.Value, delayMS float64) int {
	if delayMS < 0 {
		delayMS = 0
	}
	b.timerSeq++
	t := &timer{id: b.timerSeq, at: b.clockMS + delayMS, seq: b.timerSeq, fn: fn, args: args, dom: d}
	b.timers = append(b.timers, t)
	return t.id
}

// Idle advances the virtual clock by seconds, firing due timers in order.
func (b *Browser) Idle(seconds float64) {
	deadline := b.clockMS + seconds*1000
	for iter := 0; iter < 100000; iter++ {
		if b.abortErr != nil {
			return
		}
		t := b.nextTimer(deadline)
		if t == nil {
			break
		}
		t.gone = true
		b.clockMS = t.at
		b.mTimerFires.Inc()
		if _, err := t.dom.It.CallFunction(t.fn, minjs.Undefined(), t.args); err != nil {
			b.scriptErrs = append(b.scriptErrs, err.Error())
		}
	}
	b.clockMS = deadline
}

func (b *Browser) nextTimer(deadline float64) *timer {
	var best *timer
	for _, t := range b.timers {
		if t.gone || t.at > deadline {
			continue
		}
		if best == nil || t.at < best.at || (t.at == best.at && t.seq < best.seq) {
			best = t
		}
	}
	if best != nil {
		// compact occasionally
		if len(b.timers) > 64 {
			live := b.timers[:0]
			for _, t := range b.timers {
				if !t.gone {
					live = append(live, t)
				}
			}
			b.timers = live
		}
	}
	return best
}

// reportCSPViolation sends a csp_report request to the policy's report-uri.
func (b *Browser) reportCSPViolation() {
	b.cspReports++
	if b.csp.ReportURI != "" {
		uri := httpsim.Resolve(b.finalURL, b.csp.ReportURI)
		b.fetch(uri, httpsim.TypeCSPReport, "POST", `{"csp-report":{"violated-directive":"script-src"}}`)
	}
}

// CSPReports returns the number of violations raised during the visit.
func (b *Browser) CSPReports() int { return b.cspReports }

// FinalURL returns the post-redirect URL of the current visit.
func (b *Browser) FinalURL() string { return b.finalURL }

// InjectPageProgram runs prog in the page context by injecting a DOM script
// node — OpenWPM's vanilla approach. It is subject to the page's CSP.
// Instrumentation passes one compiled program for every page. A non-nil
// replay is tried first, once the CSP allows the injection: it reports
// whether it reproduced prog's run on d by other means, and prog runs only
// when it did not.
func (b *Browser) InjectPageProgram(d *jsdom.DOM, prog *minjs.Program, replay func() bool) error {
	if b.csp.Present && !b.csp.AllowsInline() {
		b.reportCSPViolation()
		return ErrCSPBlocked
	}
	if replay != nil && replay() {
		return nil
	}
	_, err := d.It.RunProgram(prog)
	return err
}

// ScheduleTask queues a host-side task on the event loop (next turn). The
// vanilla JS instrument uses this to instrument new frames — a tick too late
// for code that runs at frame-creation time.
func (b *Browser) ScheduleTask(d *jsdom.DOM, task func()) {
	b.scheduleHostTask(d, task)
}

// FireListeners simulates interaction on the top document.
func (b *Browser) FireListeners(event string) error {
	if b.Top == nil {
		return nil
	}
	return b.Top.FireListeners(event)
}

// AllFrames returns the top document and every descendant frame.
func (b *Browser) AllFrames() []*jsdom.DOM {
	if b.Top == nil {
		return nil
	}
	var out []*jsdom.DOM
	var walk func(d *jsdom.DOM)
	walk = func(d *jsdom.DOM) {
		out = append(out, d)
		for _, f := range d.Frames {
			walk(f)
		}
	}
	walk(b.Top)
	return out
}

// frameHost adapts Browser to jsdom.Host for one realm.
type frameHost struct {
	b   *Browser
	dom *jsdom.DOM
}

func (fh *frameHost) Now() float64 { return fh.b.clockMS }

func (fh *frameHost) SetTimeout(fn *minjs.Object, args []minjs.Value, delayMS float64) int {
	return fh.b.addTimer(fh.dom, fn, args, delayMS)
}

func (fh *frameHost) ClearTimeout(id int) {
	for _, t := range fh.b.timers {
		if t.id == id {
			t.gone = true
		}
	}
}

func (fh *frameHost) Fetch(url string, rtype httpsim.ResourceType, method, body string) (int, string, string, error) {
	resp, err := fh.b.fetch(url, rtype, method, body)
	if err != nil {
		return 0, "", "", err
	}
	return resp.Status, resp.Header("Content-Type"), resp.Body, nil
}

func (fh *frameHost) CookieString() string {
	return fh.b.Jar.DocumentCookieString(fh.dom.URL)
}

func (fh *frameHost) SetCookieString(s string) {
	before := len(fh.b.Jar.History)
	fh.b.Jar.StoreDocumentCookie(s, fh.dom.URL, fh.b.finalURL, fh.b.clockMS)
	if fh.b.OnCookieStored != nil {
		for _, rec := range fh.b.Jar.History[before:] {
			fh.b.OnCookieStored(rec)
		}
	}
}

func (fh *frameHost) CreateFrame(src string) (*jsdom.DOM, error) {
	return fh.b.createFrame(fh.dom, src)
}

func (fh *frameHost) OpenWindow(url string) (*jsdom.DOM, error) {
	fh.b.windowIdx++
	return fh.b.createFrame(nil, url)
}

func (fh *frameHost) DocumentWrite(html string) {
	fh.b.loadHTML(fh.dom, html)
}

// SortTimersForTest exposes deterministic timer ordering in tests.
func (b *Browser) SortTimersForTest() {
	sort.SliceStable(b.timers, func(i, j int) bool { return b.timers[i].at < b.timers[j].at })
}
