package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary double as the benchmark's child process:
// runChild re-executes os.Executable, which under `go test` is this binary.
func TestMain(m *testing.M) {
	if isChild() {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func TestInputsFollowTheSeed(t *testing.T) {
	sz := sizeTable["default"]
	a, b := newScanInput(5, 2, sz.ScanSites, sz), newScanInput(5, 2, sz.ScanSites, sz)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different scan site lists")
	}
	if c := newScanInput(6, 2, sz.ScanSites, sz); reflect.DeepEqual(a.Sites, c.Sites) {
		t.Fatal("a different seed gave the same scan site list")
	}
	if c := newScanInput(5, 3, sz.ScanSites, sz); reflect.DeepEqual(a.Sites, c.Sites) {
		t.Fatal("two jobs of one run crawled the same sample")
	}
	m1, m2 := newDaemonMix(5, 1, sz), newDaemonMix(5, 1, sz)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("the same seed gave two different daemon job mixes")
	}
	if m3 := newDaemonMix(6, 1, sz); reflect.DeepEqual(m1, m3) {
		t.Fatal("a different seed gave the same daemon job mix")
	}
}

func TestDaemonMixShape(t *testing.T) {
	sz := sizeTable["default"]
	sz.MixBlocks = 20
	m := newDaemonMix(9, 0, sz)
	kinds := map[opKind]int{}
	for c, ops := range m.Clients {
		if ops[0].Kind != opCold {
			t.Errorf("client %d does not open with a cold crawl", c)
		}
		crawled := map[string]bool{}
		for _, o := range ops {
			kinds[o.Kind]++
			key, _ := json.Marshal(o.Spec)
			switch o.Kind {
			case opCold:
				crawled[string(key)] = true
			case opRepeat:
				if !crawled[string(key)] {
					t.Fatalf("client %d repeats a crawl it never submitted", c)
				}
			}
		}
	}
	for _, k := range []opKind{opCold, opRepeat, opReplay, opPair} {
		if kinds[k] == 0 {
			t.Errorf("the mix has no %s ops", k)
		}
	}
	// the k-th pair op of both clients is one and the same spec
	var pairs [2][]string
	for c, ops := range m.Clients {
		for _, o := range ops {
			if o.Kind == opPair {
				key, _ := json.Marshal(o.Spec)
				pairs[c] = append(pairs[c], string(key))
			}
		}
	}
	for k := 0; k < min(len(pairs[0]), len(pairs[1])); k++ {
		if pairs[0][k] != pairs[1][k] {
			t.Fatalf("pair %d differs between the clients", k)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the metric test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wantE2E, wantLayer []metricDef
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(wantE2E, endToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", endToEnd, wantE2E)
	}
	if !reflect.DeepEqual(wantLayer, perLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", perLayer, wantLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) has an invalid or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", workloads, names)
	}
}

func TestHostSlowdownAdjustsTimes(t *testing.T) {
	// a host that ran the calibration twice as slowly as the reference
	r := &childResult{
		Cal:    [2]calibration{{WallS: 9, CPUS: 1.5 * calRefS}, {WallS: 9, CPUS: 2.5 * calRefS}},
		SetupS: 0.5, BusyS: 4, CrawlS: 2, CPUS: 6, Sites: 100, PeakRSSMB: 80,
	}
	got := endToEndSamples("scan", []*childResult{r})
	want := map[string]float64{
		"sites_per_s": 100, "jobs_per_s": 0.5, "job_p50_ms": 2000,
		"cpu_ms_per_site": 30, "setup_s": 0.25, "peak_rss_mb": 80,
		"raw.sites_per_s": 50, "raw.cpu_ms_per_site": 60, "raw.setup_s": 0.5,
	}
	for name, v := range want {
		if xs := got[name]; len(xs) != 1 || math.Abs(xs[0]-v) > 1e-9 {
			t.Errorf("%s = %v, want [%v]", name, xs, v)
		}
	}
}

func TestBucketTracesPriority(t *testing.T) {
	const traces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   gullible/internal/minjs.(*Interp).exec
             gullible/internal/minjs.(*Interp).RunProgram
             gullible/internal/browser.(*Browser).InjectPageProgram
             gullible/internal/minjs.(*Interp).CallFunction
-----------+-------------------------------------------------------
      20ms   gullible/internal/minjs.lex
             gullible/internal/minjs.Parse
             gullible/internal/minjs.(*Interp).RunProgram
-----------+-------------------------------------------------------
      10ms   gullible/internal/jsdom.(*DOM).buildPrototypes (inline)
             gullible/internal/jsdom.Build
-----------+-------------------------------------------------------
      40ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := bucketTraces([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"browser.inject_cpu_share": 0.3, "minjs.compile_cpu_share": 0.2,
		"jsdom.build_cpu_share": 0.1, "minjs.exec_cpu_share": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

// TestSmokeRunsEveryWorkload runs the whole benchmark, parent and children,
// on the smoke size, untraced and traced.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs child processes for a few seconds")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			start := time.Now()
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", tr, "--size", "smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", w, tr, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line is not a result: %v", w, tr, err)
			}
			want := endToEnd
			if tr == "1" {
				want = perLayer
			}
			// no operation of any workload may fail, or two sets of runs of
			// one program would count different failures
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s --trace %s: %s", w, tr, lines[len(lines)-1])
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s missing or in the wrong unit", w, tr, m.Name)
				}
			}
			t.Logf("%s --trace %s: %s", w, tr, time.Since(start).Round(time.Millisecond))
		}
	}
}
