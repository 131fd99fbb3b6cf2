// Command perfbench is the repository's benchmark. One invocation measures one
// workload through the program's production entry points and prints, as its
// last line, one JSON object with the output check, the failure accounting
// and the metrics:
//
//	perfbench --workload scan|durable|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with no shim
// in place. With --trace 1 the run alternates untraced and traced jobs and
// prints the per-layer metrics, read by timing shims at the program's public
// seams and by a CPU profile, plus the overhead the tracing cost. README.md
// lists the workloads and metrics; run.sh builds and starts the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the program sees, printed by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"sites_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"cpu_ms_per_site", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed by every workload with
// --trace 1. A layer the workload does not exercise, or that no seam of it
// exposes, reads 0.
var perLayer = []metricDef{
	{"browser.inject_cpu_share", "ratio"},
	{"jsdom.build_cpu_share", "ratio"},
	{"minjs.exec_cpu_share", "ratio"},
	{"minjs.compile_cpu_share", "ratio"},
	{"scriptcache.hits", "count"},
	{"scriptcache.misses", "count"},
	{"scriptcache.hit_ratio", "ratio"},
	{"scriptcache.evictions", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_site", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"openwpm.site_p50_ms", "ms"},
	{"openwpm.site_p99_ms", "ms"},
	{"openwpm.pages", "count"},
	{"openwpm.restarts", "count"},
	{"faults.injected", "count"},
	{"httpsim.roundtrips", "count"},
	{"httpsim.roundtrip_s", "s"},
	{"httpsim.body_mb", "MiB"},
	{"analysis.tamper_calls", "count"},
	{"analysis.tamper_s", "s"},
	{"analysis.analyze_s", "s"},
	{"store.records", "count"},
	{"store.append_s", "s"},
	{"wal.write_mb", "MiB"},
	{"wal.syncs", "count"},
	{"wal.sync_s", "s"},
	{"wal.records_per_s", "1/s"},
	{"wal.read_mb", "MiB"},
	{"wal.read_s", "s"},
	{"sched.merge_s", "s"},
	{"sched.shard_skew_s", "s"},
	{"sched.recover_s", "s"},
	{"bundle.mb_per_site", "MiB"},
	{"daemon.submit_us", "us"},
	{"daemon.artifact_us", "us"},
	{"daemon.cache_hit_ratio", "ratio"},
	{"daemon.coalesced", "count"},
	{"daemon.executions_per_address", "count"},
	{"daemon.job_p90_ms", "ms"},
	{"daemon.hit_p50_ms", "ms"},
	{"trace.span_events", "count"},
	{"trace.bytes", "bytes"},
	{"bench.trace_overhead_pct", "%"},
}

var workloads = []string{"scan", "durable", "daemon"}

func main() {
	if isChild() {
		os.Exit(childMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: scan, durable or daemon")
	seed := fs.Int64("seed", DefaultSeed, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	size := fs.String("size", "default", "input size: default or smoke")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	valid := false
	for _, w := range workloads {
		valid = valid || w == o.workload
	}
	if !valid {
		return o, fmt.Errorf("unknown --workload %q (want scan, durable or daemon)", o.workload)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	var ok bool
	if o.size, ok = sizeTable[*size]; !ok {
		return o, fmt.Errorf("unknown --size %q", *size)
	}
	return o, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result: what was measured, on
// what, how the runs spread, and what went wrong.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	HeldOut    int64              `json:"held_out_seed"`
	Size       string             `json:"size"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Accounting accounting         `json:"accounting"`
	Samples    map[string]summary `json:"samples"`
	// Mix is the daemon mix as served: shares of the submitted jobs.
	Mix      *mixShares `json:"daemon_mix,omitempty"`
	Problems []string   `json:"problems,omitempty"`
}

// mixShares are the measured shares of the daemon's submitted jobs that the
// artifact cache answered and that were replays.
type mixShares struct {
	HitShare    float64 `json:"hit_share"`
	ReplayShare float64 `json:"replay_share"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	prov, err := collectProvenance()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	untraced, traced, err := measure(o, work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	det := detail{Workload: o.workload, Seed: o.seed, HeldOut: HeldOutSeed, Size: o.size.Name, Trace: o.trace,
		Provenance: prov, Samples: map[string]summary{}}
	det.Problems = checkOutputs(o, append(append([]*childResult(nil), untraced...), traced...))
	for _, r := range untraced {
		det.Accounting.add(r.Account)
	}
	det.Provenance.CacheEntriesAtStart = untraced[0].CacheEntriesAtStart
	det.Provenance.GOGCInCrawl = untraced[0].GOGCInCrawl

	res := result{Correct: len(det.Problems) == 0, Metrics: map[string]metricValue{}}
	if a := det.Accounting; o.workload == "daemon" {
		res.Attempted = a.JobsSubmitted
		res.Failed = a.JobsFailed + a.JobsRejected
		n := float64(max(a.JobsSubmitted, 1))
		det.Mix = &mixShares{HitShare: float64(a.JobsCached) / n, ReplayShare: float64(a.JobsReplays) / n}
	} else {
		res.Attempted = det.Accounting.SitesAttempted
		res.Failed = det.Accounting.SitesFailed + det.Accounting.SitesSkipped
	}
	e2e := endToEndSamples(o.workload, untraced)
	for name, xs := range e2e {
		det.Samples[name] = summarize(xs)
	}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: quantile(e2e[m.Name], 0.5), Unit: m.Unit}
		}
	} else {
		layers, err := perLayerValues(o.workload, untraced, traced, e2e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
	}
	for name, v := range res.Metrics {
		if v.Value != v.Value { // NaN: a sample the run never took
			det.Problems = append(det.Problems, fmt.Sprintf("metric %s has no samples", name))
			res.Metrics[name] = metricValue{Value: 0, Unit: v.Unit}
			res.Correct = false
		}
	}
	for _, line := range []any{det, res} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed:")
		for _, p := range det.Problems {
			fmt.Fprintln(stderr, "  "+p)
		}
		return 1
	}
	return 0
}

// buildDir holds the benchmark's build and working files, inside the
// checkout it runs from.
const buildDir = ".bench_build"

// measure runs jobs, each in a child process with inputs of its own, until
// the run's seconds are spent. With tracing, every untraced job is followed by
// a traced twin with the same inputs. Between two children, while nothing
// else runs, it calibrates the host's speed.
func measure(o options, work string) (untraced, traced []*childResult, err error) {
	start := time.Now()
	// the calibration after one child is the one before the next
	cal := calibrate()
	runOne := func(index int, tr bool) (*childResult, error) {
		dir := filepath.Join(work, fmt.Sprintf("job-%d-%t", index, tr))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r, err := runChild(childJob{Workload: o.workload, Seed: o.seed, Index: index, Size: o.size.Name, Traced: tr, Dir: dir})
		if err != nil {
			return nil, err
		}
		before := cal
		cal = calibrate()
		r.Cal = [2]calibration{before, cal}
		if r.Profile == "" {
			// only profiles outlive the job; everything else is done with
			err = os.RemoveAll(dir)
		}
		return r, err
	}
	for i := 0; i < o.size.MinReps || time.Since(start).Seconds() < o.seconds; i++ {
		r, err := runOne(i, false)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, r)
		if o.trace {
			if r, err = runOne(i, true); err != nil {
				return nil, nil, err
			}
			traced = append(traced, r)
		}
	}
	return untraced, traced, nil
}

// endToEndSamples derives the end-to-end metrics' samples from the untraced
// children: one sample per child, except daemon latency, which takes one per
// daemon job. Every time and rate is adjusted to the reference host by the
// child's calibration (see hostSlowdown); the samples as measured, and the
// calibrations, are kept under "raw." and "cal." names for the detail line.
func endToEndSamples(workload string, rs []*childResult) map[string][]float64 {
	s := map[string][]float64{}
	add := func(name string, v float64) { s[name] = append(s[name], v) }
	for _, r := range rs {
		k := hostSlowdown(r)
		// elapsed adds a sample of a time, rate one of a rate: as measured,
		// and adjusted to the reference host
		elapsed := func(name string, v float64) { add("raw."+name, v); add(name, v/k) }
		rate := func(name string, v float64) { add("raw."+name, v); add(name, v*k) }
		add("cal.wall_s", (r.Cal[0].WallS+r.Cal[1].WallS)/2)
		add("cal.cpu_s", (r.Cal[0].CPUS+r.Cal[1].CPUS)/2)
		elapsed("cpu_ms_per_site", r.CPUS*1000/float64(max(r.Sites, 1)))
		elapsed("setup_s", r.SetupS)
		add("peak_rss_mb", r.PeakRSSMB)
		if workload == "daemon" {
			rate("sites_per_s", float64(r.Sites)/r.BusyS)
			rate("jobs_per_s", float64(r.Completed)/r.BusyS)
			for _, v := range r.JobsMs {
				elapsed("job_p50_ms", v)
			}
			continue
		}
		rate("sites_per_s", float64(r.Sites)/r.CrawlS)
		rate("jobs_per_s", 1/r.BusyS)
		elapsed("job_p50_ms", r.BusyS*1000)
	}
	return s
}

// perLayerValues takes the median of every traced child's layer metrics and
// adds what only the parent can compute: CPU shares from the merged
// profiles, the untraced latency tails, and the tracing overhead.
func perLayerValues(workload string, untraced, traced []*childResult, e2e map[string][]float64) (map[string]float64, error) {
	samples := map[string][]float64{}
	var profiles []string
	for _, r := range traced {
		for k, v := range r.Layers {
			samples[k] = append(samples[k], v)
		}
		if r.Profile != "" {
			profiles = append(profiles, r.Profile)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	for k, xs := range samples {
		out[k] = quantile(xs, 0.5)
	}
	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		out[k] = v
	}
	var jobsMs, hitsMs, recover []float64
	for _, r := range untraced {
		k := hostSlowdown(r)
		for _, v := range r.JobsMs {
			jobsMs = append(jobsMs, v/k)
		}
		for _, v := range r.HitsMs {
			hitsMs = append(hitsMs, v/k)
		}
		if r.RecoverS > 0 {
			recover = append(recover, r.RecoverS/k)
		}
	}
	if len(jobsMs) > 0 {
		out["daemon.job_p90_ms"] = quantile(jobsMs, 0.9)
	}
	if len(hitsMs) > 0 {
		out["daemon.hit_p50_ms"] = quantile(hitsMs, 0.5)
	}
	if len(recover) > 0 {
		out["sched.recover_s"] = quantile(recover, 0.5)
	}
	throughput := "sites_per_s"
	if workload == "daemon" {
		throughput = "jobs_per_s"
	}
	tracedE2E := endToEndSamples(workload, traced)
	if t := quantile(tracedE2E[throughput], 0.5); t > 0 {
		out["bench.trace_overhead_pct"] = (quantile(e2e[throughput], 0.5)/t - 1) * 100
	}
	return out, nil
}

// checkOutputs runs the output checks over every child of the run: each
// child's own checks, agreement of every named digest across children (a
// traced job and its untraced twin, or daemon jobs that served one content
// address), and the reference digest.
func checkOutputs(o options, rs []*childResult) []string {
	var problems []string
	seen := map[string]string{}
	for _, r := range rs {
		problems = append(problems, r.Problems...)
		for k, v := range r.Digests {
			if prev, ok := seen[k]; ok && prev != v {
				problems = append(problems, fmt.Sprintf("%s differs between runs of the same inputs: %s and %s", k, prev, v))
			}
			seen[k] = v
		}
	}
	if o.size.Name == "default" {
		if want, ok := referenceDigests[o.workload][o.seed]; ok && seen["job 0 storage"] != want {
			problems = append(problems, fmt.Sprintf("storage digest %s is not the reference %s for seed %d", seen["job 0 storage"], want, o.seed))
		}
	}
	return problems
}
