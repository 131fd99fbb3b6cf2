package openwpm_test

import (
	"fmt"
	"testing"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
)

// installSetups lists every OS × run mode the repo builds clients for.
var installSetups = []struct {
	os   jsdom.OS
	mode jsdom.Mode
}{
	{jsdom.MacOS, jsdom.Regular}, {jsdom.MacOS, jsdom.Headless},
	{jsdom.Ubuntu, jsdom.Regular}, {jsdom.Ubuntu, jsdom.Headless},
	{jsdom.Ubuntu, jsdom.Xvfb}, {jsdom.Ubuntu, jsdom.Docker},
}

// installed instruments a top window and one subframe the way a crawl does
// — the top synchronously, the frame on the next event-loop turn after a
// parent script has reached into it — and renders both realms afterwards.
func installed(t *testing.T, cfg jsdom.Config, legacy bool, honey int, script bool) (top, frame string, fallbacks int64) {
	t.Helper()
	openwpm.ForceScriptInstall(script)
	defer openwpm.ForceScriptInstall(false)
	tel := telemetry.New()
	b := browser.New(browser.Options{Config: cfg, ClientID: "client-7", Telemetry: tel})
	ji := &openwpm.JSInstrument{Legacy: legacy, HoneyProps: openwpm.HoneyNames("client-7", honey)}
	st := openwpm.NewStorage()

	td := jsdom.Build(cfg, &jsdom.NopHost{}, "https://top.example/")
	ji.OnWindow(b, st, td, true)
	if err := ji.TopInstallError(); err != nil {
		t.Fatalf("top install: %v", err)
	}
	fcfg := cfg
	fcfg.WindowIndex++
	fd := jsdom.Build(fcfg, &jsdom.NopHost{}, "https://ads.example/frame")
	ji.OnWindow(b, st, fd, false)
	// page JS touches the frame before its install tick
	if _, err := fd.It.RunScript(`var probe = window.navigator.userAgent + screen.width;`, "https://top.example/tag.js"); err != nil {
		t.Fatal(err)
	}
	b.Idle(0)

	top, frame = openwpm.DumpRealm(td), openwpm.DumpRealm(fd)
	// the realms' random streams must be untouched alike
	for _, d := range []*jsdom.DOM{td, fd} {
		v, err := d.It.RunScript("Math.random()", "rng.js")
		if err != nil {
			t.Fatal(err)
		}
		top += "\nrandom=" + v.ToString()
	}
	snap := tel.Snapshot()
	if n := snap.Total("js_instrument_subframe_install_failures_total"); n != 0 {
		t.Errorf("subframe install failures = %d, want 0", n)
	}
	return top, frame, snap.Total("js_instrument_install_fallbacks_total")
}

// TestPlannedInstallEqualsScriptInstall is the install plan's differential
// test: for every client setup the repo uses, a realm instrumented from the
// plan must be indistinguishable from one that ran the instrument's script —
// same reachable heap, property order and attributes, closure literals and
// scope bindings, step and allocation counters, and random stream.
func TestPlannedInstallEqualsScriptInstall(t *testing.T) {
	for _, s := range installSetups {
		for _, ff := range []int{78, 90} {
			for _, legacy := range []bool{false, true} {
				for _, honey := range []int{0, 4} {
					name := fmt.Sprintf("%v-%v-ff%d-legacy=%v-honey=%d", s.os, s.mode, ff, legacy, honey)
					t.Run(name, func(t *testing.T) {
						cfg := jsdom.StandardConfig(s.os, s.mode, ff, 0)
						wantTop, wantFrame, _ := installed(t, cfg, legacy, honey, true)
						gotTop, gotFrame, fallbacks := installed(t, cfg, legacy, honey, false)
						if fallbacks != 0 {
							t.Errorf("install fallbacks = %d, want 0", fallbacks)
						}
						if gotTop != wantTop {
							t.Errorf("top realm differs:\n%s", firstDiff(gotTop, wantTop))
						}
						if gotFrame != wantFrame {
							t.Errorf("subframe realm differs:\n%s", firstDiff(gotFrame, wantFrame))
						}
					})
				}
			}
		}
	}
}

// firstDiff shows where two renderings part.
func firstDiff(got, want string) string {
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	from := at - 200
	if from < 0 {
		from = 0
	}
	clip := func(s string) string {
		end := at + 200
		if end > len(s) {
			end = len(s)
		}
		if from > len(s) {
			return ""
		}
		return s[from:end]
	}
	return fmt.Sprintf("byte %d\n got: …%s…\nwant: …%s…", at, clip(got), clip(want))
}
