package openwpm_test

import (
	"bytes"
	"testing"

	"gullible/internal/experiments"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// TestScanBundleUnchangedByInstallPlan is the install plan's acceptance
// scenario: the Sec. 4 scan `wpmscan -sites 500 -subpages 1 -workers 1
// -record-bundle` (world seed 42, no faults, telemetry on) must seal a
// byte-identical bundle whether every realm takes the plan or runs the
// instrument's script, and no realm of the corpus may fall back.
func TestScanBundleUnchangedByInstallPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("two 500-site synthetic-web crawls; skipped in -short mode")
	}
	const sites = 500
	type recorded struct {
		bundle        []byte
		digest        string
		storageDigest string
		report        string
		metrics       *telemetry.Snapshot
	}
	record := func(script bool) recorded {
		openwpm.ForceScriptInstall(script)
		defer openwpm.ForceScriptInstall(false)
		world := websim.New(websim.Options{Seed: 42, NumSites: sites})
		r, err := experiments.RunScanObserved(world, sites, experiments.ScanOptions{
			MaxSubpages:  1,
			Workers:      1,
			RecordBundle: true,
			BundleMeta:   map[string]string{"tool": "wpmscan", "worldSeed": "42", "faults": "off"},
			Telemetry:    telemetry.New(),
		}, nil)
		if err != nil {
			t.Fatalf("scan (script=%v): %v", script, err)
		}
		b, err := r.Bundle.Marshal()
		if err != nil {
			t.Fatalf("marshal bundle (script=%v): %v", script, err)
		}
		return recorded{b, r.Bundle.Digest, r.Storage.Digest(), r.Report.String(), r.Metrics}
	}

	planned := record(false)
	script := record(true)

	if n := planned.metrics.Total("js_instrument_install_fallbacks_total"); n != 0 {
		t.Errorf("install fallbacks on the scan corpus = %d, want 0", n)
	}
	// CSP-protected sites block subframe injection too; both paths count
	// those failures alike
	pf := planned.metrics.Total("js_instrument_subframe_install_failures_total")
	sf := script.metrics.Total("js_instrument_subframe_install_failures_total")
	if pf != sf {
		t.Errorf("subframe install failures: planned %d, script %d", pf, sf)
	}
	t.Logf("subframe install failures: %d", pf)
	if planned.storageDigest != script.storageDigest {
		t.Errorf("storage digest: planned %s, script %s", planned.storageDigest, script.storageDigest)
	}
	if planned.report != script.report {
		t.Errorf("crawl report diverges:\nplanned:\n%s\nscript:\n%s", planned.report, script.report)
	}
	if !bytes.Equal(planned.bundle, script.bundle) {
		at := 0
		for at < len(planned.bundle) && at < len(script.bundle) && planned.bundle[at] == script.bundle[at] {
			at++
		}
		t.Fatalf("bundles differ (planned %s, %d bytes; script %s, %d bytes); first difference at byte %d",
			planned.digest, len(planned.bundle), script.digest, len(script.bundle), at)
	}
}
