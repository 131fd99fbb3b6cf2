package openwpm_test

import (
	"reflect"
	"testing"

	"gullible/internal/attacks"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
)

// TestInstallTamperFixturesMatchScript crawls each of the attacks package's
// install-tamper pages — which rewrite a frame's realm before its install
// tick — with the install plan and with the script forced everywhere. What
// the page leaves in the crawl must not depend on the path taken: the same
// JSCall records, script errors and CSP reports, and the same storage.
func TestInstallTamperFixturesMatchScript(t *testing.T) {
	type outcome struct {
		calls        []openwpm.JSCall
		scriptErrors int64
		cspReports   []int
		digest       string
	}
	crawl := func(tr *attacks.Transport, script bool) outcome {
		openwpm.ForceScriptInstall(script)
		defer openwpm.ForceScriptInstall(false)
		tel := telemetry.New()
		tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
			OS: jsdom.Ubuntu, Mode: jsdom.Regular,
			Transport: tr, DwellSeconds: 2,
			JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
			HTTPFilterJSOnly: true, HoneyProps: 4,
			Telemetry: tel,
		})
		tm.Crawl([]string{"https://attack-site.example/"})
		o := outcome{
			calls:        tm.Storage.JSCalls,
			scriptErrors: tel.Snapshot().Total("browser_script_errors_total"),
			digest:       tm.Storage.Digest(),
		}
		for _, v := range tm.Storage.Visits {
			o.cspReports = append(o.cspReports, v.CSPReports)
		}
		return o
	}
	pages := map[string]*attacks.Transport{
		"CSP-blocked injection":      {Payload: "navigator.userAgent;", CSPHeader: "script-src 'self'; report-uri /csp-report"},
		"iframe read before install": {Payload: attacks.IframeBypassJS},
	}
	for _, fx := range attacks.InstallTamperFixtures {
		pages[fx.Name] = &attacks.Transport{Payload: fx.Payload}
	}
	for name, tr := range pages {
		planned, script := crawl(tr, false), crawl(tr, true)
		if !reflect.DeepEqual(planned.calls, script.calls) {
			t.Errorf("%s: JSCall records differ: planned %d, script %d", name, len(planned.calls), len(script.calls))
		}
		if planned.scriptErrors != script.scriptErrors {
			t.Errorf("%s: script errors: planned %d, script %d", name, planned.scriptErrors, script.scriptErrors)
		}
		if !reflect.DeepEqual(planned.cspReports, script.cspReports) {
			t.Errorf("%s: CSP reports: planned %v, script %v", name, planned.cspReports, script.cspReports)
		}
		if planned.digest != script.digest {
			t.Errorf("%s: storage digest: planned %s, script %s", name, planned.digest, script.digest)
		}
		t.Logf("%s: %d calls, %d script errors, CSP reports %v", name, len(planned.calls), planned.scriptErrors, planned.cspReports)
	}
}
