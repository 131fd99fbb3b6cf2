package fingerprint

import (
	"fmt"

	"gullible/internal/jsdom"
)

// DetectorStrategy names one of the four test strategies of Sec. 3.3.
type DetectorStrategy int

// The four strategies.
const (
	StrategyPresence  DetectorStrategy = iota + 1 // a DOM property exists
	StrategyAbsence                               // a DOM property is missing
	StrategyOverwrite                             // a native function was overwritten
	StrategyValue                                 // a DOM property has an expected value
)

func (s DetectorStrategy) String() string {
	switch s {
	case StrategyPresence:
		return "presence"
	case StrategyAbsence:
		return "absence"
	case StrategyOverwrite:
		return "overwritten-native"
	default:
		return "expected-value"
	}
}

// Finding is one positive detector test.
type Finding struct {
	Strategy DetectorStrategy
	Property string
	Detail   string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s %s", f.Strategy, f.Property, f.Detail)
}

// Detector implements the paper's validation detector: it tests the entire
// measured fingerprint surface with the four strategies to identify OpenWPM
// clients among arbitrary web clients.
type Detector struct{}

// Detect runs all strategies against a client; any finding marks the client
// as an OpenWPM bot.
func (Detector) Detect(d *jsdom.DOM) []Finding {
	var out []Finding
	probe := func(expr string) string {
		v, err := d.It.RunScript(expr, "detector.js")
		if err != nil {
			return "error"
		}
		return v.ToString()
	}

	// Strategy 1: presence of OpenWPM-only DOM properties.
	for _, name := range []string{"getInstrumentJS", "jsInstruments", "instrumentFingerprintingApis"} {
		if probe("typeof window."+name) == "function" {
			out = append(out, Finding{StrategyPresence, "window." + name, "present"})
		}
	}
	// Strategy 1b: prototype pollution from the instrumentation.
	if probe(`Object.getPrototypeOf(document).hasOwnProperty("cookie")`) == "true" {
		out = append(out, Finding{StrategyPresence, "HTMLDocument.prototype.cookie", "polluted prototype"})
	}

	// Strategy 2: absence of properties regular browsers have.
	if probe(`document.createElement("canvas").getContext("webgl") === null`) == "true" {
		out = append(out, Finding{StrategyAbsence, "WebGL", "no implementation (headless)"})
	}

	// Strategy 3: overwritten native functions (Listing 1).
	if probe(`document.createElement("canvas").getContext.toString().indexOf("[native code]") < 0`) == "true" {
		out = append(out, Finding{StrategyOverwrite, "HTMLCanvasElement.getContext", "non-native toString"})
	}
	if probe(`Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "userAgent").get.toString().indexOf("[native code]") < 0`) == "true" {
		out = append(out, Finding{StrategyOverwrite, "Navigator.userAgent getter", "non-native toString"})
	}
	// Strategy 3b: prototype-level getter no longer throws.
	if probe(`(function(){ try { Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "userAgent").get.call({}); return "no-throw"; } catch (e) { return "throw"; } })()`) == "no-throw" {
		out = append(out, Finding{StrategyOverwrite, "Navigator.userAgent getter", "brand check gone"})
	}
	// Strategy 3c: stack traces expose instrumentation frames.
	if probe(`(function(){ var s = ""; try { new AudioContext().decodeAudioData(); } catch (e) { s = e.stack } return s.indexOf("instrument") >= 0 ? "leak" : "clean"; })()`) == "leak" {
		out = append(out, Finding{StrategyOverwrite, "stack trace", "instrumentation frames visible"})
	}

	// Strategy 4: expected values of the automation stack.
	if probe("navigator.webdriver") == "true" {
		out = append(out, Finding{StrategyValue, "navigator.webdriver", "true"})
	}
	// OpenWPM's fixed window geometry (Table 3): 1366×683 content area.
	if probe("window.innerWidth") == "1366" && probe("window.innerHeight") == "683" {
		out = append(out, Finding{StrategyValue, "window dimensions", "OpenWPM standard 1366x683"})
	}
	// Display-less modes: availTop of zero with a desktop user agent.
	if probe("screen.availTop") == "0" && probe("screen.availLeft") == "0" && probe("window.screenX") == "0" && probe("window.screenY") == "0" {
		out = append(out, Finding{StrategyValue, "screen.availTop/availLeft", "0 (display-less)"})
	}
	// Virtualisation traces (Table 4).
	vendor := probe(`(function(){ var c = document.createElement("canvas").getContext("webgl"); return c === null ? "" : c.getParameter("VENDOR"); })()`)
	if vendor == "VMware, Inc." {
		out = append(out, Finding{StrategyValue, "WebGL vendor", "VMware, Inc. (virtualisation)"})
	}
	// Docker's single-font environment.
	if probe("document.fonts.size") == "1" {
		out = append(out, Finding{StrategyValue, "font enumeration", "single font (container)"})
	}
	return out
}
