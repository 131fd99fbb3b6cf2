package openwpm_test

import (
	"testing"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
)

// BenchmarkInstrumentInstall prices one realm of a vanilla crawl: building
// the realm alone, building it and installing the instrument from its
// install plan, and building it and running the instrument's script (the
// path every realm took before the plan existed). The plan is derived
// before the timer starts, as a crawl derives it once.
func BenchmarkInstrumentInstall(b *testing.B) {
	const url = "https://bench.example/"
	cfg := jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0)
	br := browser.New(browser.Options{Config: cfg, ClientID: "bench-client"})
	st := openwpm.NewStorage()
	run := func(b *testing.B, install, script bool) {
		openwpm.ForceScriptInstall(script)
		defer openwpm.ForceScriptInstall(false)
		ji := &openwpm.JSInstrument{HoneyProps: openwpm.HoneyNames("bench-client", 4)}
		ji.OnWindow(br, st, jsdom.Build(cfg, &jsdom.NopHost{}, url), true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := jsdom.Build(cfg, &jsdom.NopHost{}, url)
			if install {
				ji.OnWindow(br, st, d, true)
			}
		}
	}
	b.Run("build", func(b *testing.B) { run(b, false, false) })
	b.Run("build+plan", func(b *testing.B) { run(b, true, false) })
	b.Run("build+script", func(b *testing.B) { run(b, true, true) })
}
