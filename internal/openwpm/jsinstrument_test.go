package openwpm

import (
	"testing"

	"gullible/internal/jsdom"
	"gullible/internal/telemetry"
)

// TestInstallPlanServesEveryWindowOfATaskManager checks the install plan's
// API-list input against every realm configuration one TaskManager
// produces: browsers restart with a new window index, window.open adds to
// it, and the Firefox version comes from the crawl config. Every such realm
// must list the APIs the plan was derived with, be served by the plan, and
// install from it.
func TestInstallPlanServesEveryWindowOfATaskManager(t *testing.T) {
	setups := []struct {
		os   jsdom.OS
		mode jsdom.Mode
	}{
		{jsdom.MacOS, jsdom.Regular}, {jsdom.MacOS, jsdom.Headless},
		{jsdom.Ubuntu, jsdom.Regular}, {jsdom.Ubuntu, jsdom.Headless},
		{jsdom.Ubuntu, jsdom.Xvfb}, {jsdom.Ubuntu, jsdom.Docker},
	}
	for _, s := range setups {
		for _, ff := range []int{0, 78, 90} { // 0: the TaskManager's default
			tel := telemetry.New()
			tm := NewTaskManager(CrawlConfig{OS: s.os, Mode: s.mode, FirefoxVersion: ff,
				JSInstrument: true, HoneyProps: 4, Telemetry: tel})
			ji := tm.js.(*JSInstrument)
			for restart := 0; restart < 3; restart++ {
				b := tm.NewBrowser()
				for opened := 0; opened < 3; opened++ {
					cfg := b.Opts.Config
					cfg.WindowIndex += opened
					d := jsdom.Build(cfg, &jsdom.NopHost{}, "https://tm.example/")
					ji.OnWindow(b, tm.Storage, d, true)
					p := ji.plan
					if p.err != nil {
						t.Fatalf("%v/%v ff%d: plan not derived: %v", s.os, s.mode, ff, p.err)
					}
					if !sameAPIs(d.InstrumentableAPIs(), p.apiList) {
						t.Errorf("%v/%v ff%d window %d: API list differs from the plan's", s.os, s.mode, ff, cfg.WindowIndex)
					}
					if !p.servesConfig(cfg) {
						t.Errorf("%v/%v ff%d window %d: plan does not serve the config", s.os, s.mode, ff, cfg.WindowIndex)
					}
				}
			}
			if n := tel.Snapshot().Total(metricInstallFallbacks); n != 0 {
				t.Errorf("%v/%v ff%d: %d install fallbacks, want 0", s.os, s.mode, ff, n)
			}
		}
	}
}

// A realm built for another client configuration lists other APIs; it must
// not be served the plan or the API list of the instrument's first realm.
func TestInstallPlanRejectsAnotherBuildsAPIs(t *testing.T) {
	tel := telemetry.New()
	tm := NewTaskManager(CrawlConfig{OS: jsdom.Ubuntu, Mode: jsdom.Regular, JSInstrument: true, Telemetry: tel})
	ji := tm.js.(*JSInstrument)
	b := tm.NewBrowser()
	ji.OnWindow(b, tm.Storage, jsdom.Build(b.Opts.Config, &jsdom.NopHost{}, "https://tm.example/"), true)

	mac := jsdom.Build(jsdom.StandardConfig(jsdom.MacOS, jsdom.Regular, 90, 0), &jsdom.NopHost{}, "https://tm.example/")
	if sameAPIs(mac.InstrumentableAPIs(), ji.plan.apiList) {
		t.Fatal("macOS and Ubuntu builds list the same APIs; the test needs builds that differ")
	}
	ji.OnWindow(b, tm.Storage, mac, true)
	if err := ji.TopInstallError(); err != nil {
		t.Fatal(err)
	}
	if n := tel.Snapshot().Total(metricInstallFallbacks); n != 1 {
		t.Errorf("install fallbacks = %d, want 1", n)
	}
	// the macOS-only Screen attribute is hooked from the realm's own list
	if p := mac.Protos["Screen"].GetOwn("mozBrightness"); p == nil || !p.Accessor || p.Get == nil || p.Get.NativeFnName() != "" {
		t.Errorf("Screen.mozBrightness not instrumented from the realm's own API list: %+v", p)
	}
}
