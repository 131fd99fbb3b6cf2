package attacks

import (
	"strings"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/stealth"
	"gullible/internal/telemetry"
)

func stealthVariant() Variant {
	return Variant{
		Name: "WPM_hide",
		NewTM: func(tr httpsim.RoundTripper) *openwpm.TaskManager {
			return openwpm.NewTaskManager(openwpm.CrawlConfig{
				OS: jsdom.Ubuntu, Mode: jsdom.Regular,
				Transport: tr, DwellSeconds: 2,
				HTTPInstrument: true, CookieInstrument: true,
				HTTPFilterJSOnly: false, // Sec. 6.2.3 recommends full coverage
				Stealth:          stealth.New(),
			})
		},
	}
}

// expected outcome per attack, per variant.
func TestAttackMatrixVanillaVsStealth(t *testing.T) {
	wantVanilla := map[string]bool{
		"recorder-shutdown (Listing 2)":         true,
		"fake-data injection (Sec. 5.2)":        true,
		"SQL injection (Sec. 5.3)":              false, // storage sanitised (Sec. 5.3)
		"CSP injection blocking (Sec. 5.1.2)":   true,
		"iframe unobserved channel (Listing 3)": true,
		"silent JS delivery (Listing 4)":        true,
	}
	wantStealth := map[string]bool{
		"recorder-shutdown (Listing 2)":         false,
		"fake-data injection (Sec. 5.2)":        false,
		"SQL injection (Sec. 5.3)":              false,
		"CSP injection blocking (Sec. 5.1.2)":   false,
		"iframe unobserved channel (Listing 3)": false,
		"silent JS delivery (Listing 4)":        false, // full coverage stores it
	}
	for _, r := range RunAll(VanillaVariant()) {
		want, ok := wantVanilla[r.Attack]
		if !ok {
			t.Fatalf("unknown attack %q", r.Attack)
		}
		if r.Succeeded != want {
			t.Errorf("vanilla: %s succeeded=%v, want %v (%s)", r.Attack, r.Succeeded, want, r.Detail)
		}
	}
	for _, r := range RunAll(stealthVariant()) {
		want, ok := wantStealth[r.Attack]
		if !ok {
			t.Fatalf("unknown attack %q", r.Attack)
		}
		if r.Succeeded != want {
			t.Errorf("stealth: %s succeeded=%v, want %v (%s)", r.Attack, r.Succeeded, want, r.Detail)
		}
	}
}

func TestForgedRecordCannotSpoofTopURL(t *testing.T) {
	tm := VanillaVariant().NewTM(&Transport{Payload: FakeDataInjectionJS})
	tm.VisitSite("https://attack-site.example/")
	for _, c := range tm.Storage.JSCalls {
		if c.TopURL != "https://attack-site.example/" {
			t.Fatalf("a record carries spoofed TopURL %q", c.TopURL)
		}
	}
}

func TestSilentPayloadExecutesEvenWhenUnstored(t *testing.T) {
	// the payload runs (JS instrument sees its calls) — only the HTTP
	// store misses it
	tm := VanillaVariant().NewTM(&Transport{Payload: SilentDeliveryJS})
	tm.Cfg.DwellSeconds = 3
	tm.VisitSite("https://attack-site.example/")
	if tm.Storage.JSCallsBySymbol()["Navigator.userAgent"] == 0 {
		t.Error("silent payload did not execute")
	}
}

// tamperVisit crawls a fixture page on vanilla OpenWPM with telemetry on.
func tamperVisit(payload string) (*openwpm.TaskManager, *openwpm.CrawlReport, *telemetry.Snapshot) {
	tel := telemetry.New()
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: &Transport{Payload: payload}, DwellSeconds: 2,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true, HoneyProps: 4,
		Telemetry: tel,
	})
	r := tm.Crawl([]string{attackSite})
	return tm, r, tel.Snapshot()
}

// Each fixture tampers with a frame the instrument's install plan would
// otherwise serve, so the frame must fall back to running the script; the
// top window is untouched and keeps the plan. (The seam-forced comparison
// of these pages lives in the openwpm package, which owns the seam.)
func TestInstallTamperFixturesFallBack(t *testing.T) {
	for _, fx := range InstallTamperFixtures {
		_, _, snap := tamperVisit(fx.Payload)
		if n := snap.Total("js_instrument_install_fallbacks_total"); n != 1 {
			t.Errorf("%s: install fallbacks = %d, want 1 (the tampered frame)", fx.Name, n)
		}
	}
	// reading a frame before its install tick, as the Listing 3 attack does,
	// changes nothing the install reads
	_, _, snap := tamperVisit(IframeBypassJS)
	if n := snap.Total("js_instrument_install_fallbacks_total"); n != 0 {
		t.Errorf("iframe read-only access: install fallbacks = %d, want 0", n)
	}
}

// A frame whose install throws is counted, not reported: the page record's
// InstrumentInstalled bit tracks the top window only.
func TestSubframeInstallFailureIsCounted(t *testing.T) {
	var nonConfigurable string
	for _, fx := range InstallTamperFixtures {
		if strings.HasPrefix(fx.Name, "non-configurable") {
			nonConfigurable = fx.Payload
		}
	}
	tm, report, snap := tamperVisit(nonConfigurable)
	if n := snap.Total("js_instrument_subframe_install_failures_total"); n != 1 {
		t.Errorf("subframe install failures = %d, want 1", n)
	}
	if len(tm.Storage.Visits) != 1 || !tm.Storage.Visits[0].InstrumentInstalled {
		t.Errorf("visit records %+v: want one with the top instrument installed", tm.Storage.Visits)
	}
	// operational counters never reach the crawl report's sealed snapshot
	if report.Metrics == nil || report.Metrics.Total("js_instrument_subframe_install_failures_total") != 0 {
		t.Errorf("the crawl report's metrics %v embed an operational counter (or are missing)", report.Metrics)
	}
	_, _, snap = tamperVisit(IframeBypassJS)
	if n := snap.Total("js_instrument_subframe_install_failures_total"); n != 0 {
		t.Errorf("clean frame: subframe install failures = %d, want 0", n)
	}
}
