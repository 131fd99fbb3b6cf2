package sched

import (
	"os"
	"runtime/debug"
	"sync"
)

// crawlGOGC is the garbage-collection target percentage used while a crawl
// is running. Visits allocate realm object graphs (one interpreter, DOM and
// instrumentation set per window) that die wholesale when the visit ends;
// at the default GOGC=100 the collector re-walks that short-lived,
// pointer-dense heap often enough to cost ~35% of crawl CPU. Trading heap
// headroom for collection frequency is the standard batch-throughput tuning
// and changes nothing observable: artifacts, digests and the interpreters'
// manual allocation counters are GC-independent. The target also sets the
// peak heap: objects allocated while a cycle marks count as live for the
// next target, so a crawl that allocates faster peaks higher at the same
// GOGC. Since the JS instrument installs from a plan, a crawl allocates
// ~40% less per site at ~2.5x the rate, and 300 keeps its peak heap where
// 400 held the script-installing crawl's, with fewer collections per site.
const crawlGOGC = 300

var gcTune struct {
	mu    sync.Mutex
	depth int
	prev  int
}

// crawlGCTuneOn raises GOGC for the duration of a crawl (refcounted, so
// overlapping daemon jobs share one setting). An explicit GOGC environment
// variable wins: the operator asked for that target, keep it.
func crawlGCTuneOn() {
	if os.Getenv("GOGC") != "" {
		return
	}
	gcTune.mu.Lock()
	defer gcTune.mu.Unlock()
	gcTune.depth++
	if gcTune.depth == 1 {
		gcTune.prev = debug.SetGCPercent(crawlGOGC)
	}
}

func crawlGCTuneOff() {
	if os.Getenv("GOGC") != "" {
		return
	}
	gcTune.mu.Lock()
	defer gcTune.mu.Unlock()
	gcTune.depth--
	if gcTune.depth == 0 {
		debug.SetGCPercent(gcTune.prev)
	}
}
