package minjs_test

import (
	"bytes"
	"testing"

	"gullible/internal/experiments"
	"gullible/internal/minjs"
	"gullible/internal/websim"
)

// TestScanBundleMatchesOracle is the engine-parity acceptance scenario: the
// Sec. 4 scan `wpmscan -sites 500 -subpages 1 -workers 1 -record-bundle`
// runs (world seed 42, no faults), recorded once on the bytecode VM and once
// on the reference tree-walker, must seal byte-identical execution bundles.
// Any drift in values, errors, step accounting or property-access order
// between the engines shows up here as a bundle delta.
func TestScanBundleMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("two 500-site synthetic-web crawls; skipped in -short mode")
	}
	const sites = 500
	type recorded struct {
		bundle        []byte
		digest        string
		storageDigest string
		report        string
	}
	record := func(onOracle bool) recorded {
		minjs.UseOracle(onOracle)
		defer minjs.UseOracle(false)
		world := websim.New(websim.Options{Seed: 42, NumSites: sites})
		r, err := experiments.RunScanObserved(world, sites, experiments.ScanOptions{
			MaxSubpages:  1,
			Workers:      1,
			RecordBundle: true,
			BundleMeta:   map[string]string{"tool": "wpmscan", "worldSeed": "42", "faults": "off"},
		}, nil)
		if err != nil {
			t.Fatalf("scan (oracle=%v): %v", onOracle, err)
		}
		b, err := r.Bundle.Marshal()
		if err != nil {
			t.Fatalf("marshal bundle (oracle=%v): %v", onOracle, err)
		}
		return recorded{b, r.Bundle.Digest, r.Storage.Digest(), r.Report.String()}
	}

	vm := record(false)
	oracle := record(true)

	if vm.storageDigest != oracle.storageDigest {
		t.Errorf("storage digest: vm %s, oracle %s", vm.storageDigest, oracle.storageDigest)
	}
	if vm.report != oracle.report {
		t.Errorf("crawl report diverges:\nvm:\n%s\noracle:\n%s", vm.report, oracle.report)
	}
	if !bytes.Equal(vm.bundle, oracle.bundle) {
		at := 0
		for at < len(vm.bundle) && at < len(oracle.bundle) && vm.bundle[at] == oracle.bundle[at] {
			at++
		}
		t.Fatalf("bundles differ (vm %s, %d bytes; oracle %s, %d bytes); first difference at byte %d",
			vm.digest, len(vm.bundle), oracle.digest, len(oracle.bundle), at)
	}
}
