package minjs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// between the engines shows up here as a bundle delta. The VM's artifacts
// are also pinned to the ones the scan sealed before the instrument's
// install plan existed, so drift that both engines share fails too.
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
	const (
		pinnedBundleDigest  = "ca2ea63b7385f561be7d7d2bb7296da09e0481c9e2b80a65e4314639c130c599"
		pinnedBundleSHA256  = "7f95b3a3f9716a5beb4e3aa517db15d0a0d00fd9831e84ed0799c7662c431a60"
		pinnedStorageDigest = "85c9e39ff3baf3167314d08e769404904f85fe4265e8f1420a321a096e2e810b"
	)
	sum := sha256.Sum256(vm.bundle)
	if vm.digest != pinnedBundleDigest || hex.EncodeToString(sum[:]) != pinnedBundleSHA256 {
		t.Errorf("bundle drifted from the pinned artifact: digest %s, sha256 %x (want %s, %s)",
			vm.digest, sum, pinnedBundleDigest, pinnedBundleSHA256)
	}
	if vm.storageDigest != pinnedStorageDigest {
		t.Errorf("storage digest %s drifted from the pinned %s", vm.storageDigest, pinnedStorageDigest)
	}
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
