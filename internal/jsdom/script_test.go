package jsdom

import (
	"errors"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/minjs"
)

// A page that keeps inserting <script> elements runs every inserted script
// inside the inserting script's run, so they all draw on one step budget:
// an unbounded insert loop must still be interrupted.
func TestInsertedScriptsChargeTheRunningBudget(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	d.It.StepLimit = 10_000
	_, err := d.It.RunScript(`
		for (var i = 0; i < 20000; i++) {
			var s = document.createElement("script");
			s.textContent = "inserted = i";
			document.body.appendChild(s);
		}`, "inserter.js")
	var ie *minjs.InterruptError
	if !errors.As(err, &ie) || ie.Reason != "step limit exceeded" {
		t.Fatalf("insert loop returned %v after %d steps, want a step-limit interrupt", err, d.It.Steps())
	}
	if n := d.It.Steps(); n <= d.It.StepLimit {
		t.Errorf("Steps() = %d after the interrupt, want it past the %d limit", n, d.It.StepLimit)
	}
}

// bodyHost answers every fetch with one fixed body.
type bodyHost struct {
	timerHost
	body string
}

func (h *bodyHost) Fetch(url string, rtype httpsim.ResourceType, method, body string) (int, string, string, error) {
	return 200, "application/json", h.body, nil
}

// fetchJSON fetches a URL served by a bodyHost with body, resolves the
// response's json(), and reports the page's outcome string.
func fetchJSON(t *testing.T, body string) (*DOM, string) {
	t.Helper()
	h := &bodyHost{body: body}
	d := Build(StandardConfig(Ubuntu, Regular, 90, 0), h, "https://example.com/")
	h.dom = d
	evalIn(t, d, `
		var outcome = "pending";
		fetch("/api").then(function(r) { return r.json() }).then(
			function(v) { outcome = "resolved:" + JSON.stringify(v) },
			function(e) { outcome = "rejected:" + e.name });`)
	h.pump(t)
	return d, evalIn(t, d, "outcome").ToString()
}

// Response.json() parses the body as data. A server that replies with
// script instead of JSON gets a SyntaxError, not code execution in the page.
func TestResponseJSONNeverRunsTheBody(t *testing.T) {
	d, got := fetchJSON(t, `(function(){window.pwned=1;return 1})()`)
	if got != "rejected:SyntaxError" {
		t.Errorf("json() of a script body: %s, want rejected:SyntaxError", got)
	}
	if v := evalIn(t, d, "typeof pwned"); v.Str != "undefined" {
		t.Errorf("the response body ran as script: typeof pwned = %s", v.Str)
	}

	if _, got := fetchJSON(t, `{"a": [1, "x", null], "b": {"c": true}}`); got != `resolved:{"a":[1,"x",null],"b":{"c":true}}` {
		t.Errorf("json() of a JSON body: %s", got)
	}
}

// The page cannot intercept Response.json() by overriding JSON.parse.
func TestResponseJSONIgnoresPageJSONParse(t *testing.T) {
	h := &bodyHost{body: `[1, 2]`}
	d := Build(StandardConfig(Ubuntu, Regular, 90, 0), h, "https://example.com/")
	h.dom = d
	evalIn(t, d, `
		var hooked = false, got;
		JSON.parse = function(s) { hooked = true; return "forged" };
		fetch("/api").then(function(r) { return r.json() }).then(function(v) { got = v.length });`)
	h.pump(t)
	if v := evalIn(t, d, "hooked"); v.Bool {
		t.Error("Response.json() went through the page's JSON.parse")
	}
	if v := evalIn(t, d, "got"); v.Num != 2 {
		t.Errorf("json() result length = %v, want 2", v.ToString())
	}
}
