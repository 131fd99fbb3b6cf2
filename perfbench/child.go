package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every measured job runs in a fresh child process: a scan then starts with a
// cold script cache, as it does for every wpmscan user, and the child's heap
// peak belongs to that job alone. The parent re-executes its own binary with
// childEnv set, writes the job on the child's stdin and reads one result line
// from its stdout.
const childEnv = "PERFBENCH_CHILD"

// childJob is what the parent asks of one child.
type childJob struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Size     string `json:"size"`
	Index    int    `json:"index"` // which of the run's jobs, and so its inputs
	Traced   bool   `json:"traced"`
	Dir      string `json:"dir"` // private working directory
}

// accounting is the failure accounting of one child: sites for scan and
// durable, jobs for daemon.
type accounting struct {
	SitesAttempted int `json:"sites_attempted"`
	SitesCompleted int `json:"sites_completed"`
	SitesSalvaged  int `json:"sites_salvaged"`
	SitesFailed    int `json:"sites_failed"`
	SitesSkipped   int `json:"sites_skipped"`

	JobsSubmitted int `json:"jobs_submitted"`
	JobsCompleted int `json:"jobs_completed"`
	JobsFailed    int `json:"jobs_failed"`
	JobsRejected  int `json:"jobs_rejected"`
	// JobsCached counts completed jobs answered from the artifact cache,
	// JobsReplays completed replay jobs: the measured shares of the mix.
	JobsCached  int `json:"jobs_cached"`
	JobsReplays int `json:"jobs_replays"`
	// JobsDuplicated counts executions beyond the first for one content
	// address: two identical submits that both ran.
	JobsDuplicated int `json:"jobs_duplicated"`
}

func (a *accounting) add(b accounting) {
	a.SitesAttempted += b.SitesAttempted
	a.SitesCompleted += b.SitesCompleted
	a.SitesSalvaged += b.SitesSalvaged
	a.SitesFailed += b.SitesFailed
	a.SitesSkipped += b.SitesSkipped
	a.JobsSubmitted += b.JobsSubmitted
	a.JobsCompleted += b.JobsCompleted
	a.JobsFailed += b.JobsFailed
	a.JobsRejected += b.JobsRejected
	a.JobsCached += b.JobsCached
	a.JobsReplays += b.JobsReplays
	a.JobsDuplicated += b.JobsDuplicated
}

// childResult is one child's measurements.
type childResult struct {
	// SetupS is filled in by the parent (see runChild).
	SetupS float64 `json:"setup_s"`
	// BusyS is the timed region: one whole job for scan and durable, the
	// closed loop for daemon. Sites are the sites crawled in it.
	BusyS float64 `json:"busy_s"`
	Sites int     `json:"sites"`
	// CrawlS is the scan (durable: crawl, seal and bundle write) without
	// recovery; RecoverS is the durable recovery.
	CrawlS float64 `json:"crawl_s,omitempty"`
	// CPUS is the process CPU time (user and system) spent in BusyS.
	CPUS     float64 `json:"cpu_s"`
	RecoverS float64 `json:"recover_s,omitempty"`
	// JobsMs are daemon miss and replay latencies, HitsMs cache hits.
	JobsMs    []float64 `json:"jobs_ms,omitempty"`
	HitsMs    []float64 `json:"hits_ms,omitempty"`
	Completed int       `json:"completed"`

	PeakRSSMB float64    `json:"peak_rss_mb"`
	Account   accounting `json:"accounting"`
	// Digests name the outputs whose bytes must agree wherever the same
	// inputs ran: a job's storage and bundle digests, or a daemon artifact's
	// hash by content address.
	Digests  map[string]string `json:"digests"`
	Problems []string          `json:"problems,omitempty"`

	// Cal times the benchmark's fixed work in the parent right before the
	// child starts and right after it ends: the host's speed around the job.
	Cal [2]calibration `json:"cal"`

	CacheEntriesAtStart int `json:"scriptcache_entries_at_start"`
	// GOGCInCrawl is the GOGC in force while a crawl ran.
	GOGCInCrawl float64 `json:"gogc_in_crawl"`

	Layers  map[string]float64 `json:"layers,omitempty"`
	Profile string             `json:"profile,omitempty"`
}

func (r *childResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// isChild reports whether this process was started as a child.
func isChild() bool { return os.Getenv(childEnv) != "" }

// childMain runs the job read from stdin and prints its result.
func childMain() int {
	var job childJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: read job:", err)
		return 1
	}
	sz, ok := sizeTable[job.Size]
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench child: unknown size", job.Size)
		return 1
	}
	var res *childResult
	var err error
	switch job.Workload {
	case "scan", "durable":
		res, err = runScanJob(job, sz)
	case "daemon":
		res, err = runDaemonJob(job, sz)
	default:
		err = fmt.Errorf("unknown workload %q", job.Workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: write result:", err)
		return 1
	}
	return 0
}

// readyLine is what a child prints once its set-up is done and the timed
// part begins.
const readyLine = "ready"

// signalReady tells the parent the child's set-up is done.
func signalReady() { fmt.Println(readyLine) }

// childTimeout bounds one child, whose job takes seconds, so that a hung
// program still ends the run well within its time limit.
const childTimeout = 2 * time.Minute

// runChild starts one child for job and waits for its result. The child's
// set-up time runs from the start of the process to its ready line, so it
// includes process start and package initialisation.
func runChild(job childJob) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > runtime.NumCPU() {
		// more Ps than CPUs measures the scheduler, not the program
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	}
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	out := bufio.NewReader(stdout)
	line, rerr := out.ReadString('\n')
	ready := time.Since(start)
	var res childResult
	if rerr == nil && strings.TrimSpace(line) == readyLine {
		rerr = json.NewDecoder(out).Decode(&res)
	} else if rerr == nil {
		rerr = fmt.Errorf("unexpected line %q", line)
	}
	if _, err := io.Copy(io.Discard, out); err != nil && rerr == nil {
		rerr = err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w", job.Workload, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", job.Workload, rerr)
	}
	res.SetupS = ready.Seconds()
	return &res, nil
}

// gogcNow reads the GOGC setting in force.
func gogcNow() float64 {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gogcSampler records the highest GOGC setting in force while crawls run
// that the benchmark cannot observe from inside: sched raises it for the
// length of a crawl. It runs only during set-up, never in a timed region.
type gogcSampler struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

const gogcSampleEvery = 2 * time.Millisecond

func startGOGCSampler() *gogcSampler {
	g := &gogcSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(gogcSampleEvery)
		defer t.Stop()
		for {
			g.max = max(g.max, gogcNow())
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// Stop ends sampling and returns the highest GOGC seen.
func (g *gogcSampler) Stop() float64 {
	close(g.stop)
	<-g.done
	return g.max
}

// peakRSSMB returns the process's peak resident set in MiB: the memory a
// user of the job sees it take.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters are the cumulative runtime metrics a traced job reports as
// deltas.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
}

// readRuntime reads the counters. It collects first: the CPU classes are
// only brought up to date by a collection.
func readRuntime() runtimeCounters {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(), gcCycles: s[3].Value.Uint64(),
	}
}

// runtimeLayers adds the runtime's share of a traced job to m.
func runtimeLayers(m map[string]float64, before, after runtimeCounters, sites, jobs int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if sites > 0 {
		m["runtime.alloc_mb_per_site"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / float64(sites)
	}
	m["runtime.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / float64(max(jobs, 1))
}

// cpuProfile profiles the traced part of a child into dir.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir string) (*cpuProfile, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pb.gz")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: f.Name(), f: f}, nil
}

func (p *cpuProfile) Stop() (string, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return "", err
	}
	return p.path, nil
}

// cpuTime returns the process's CPU time so far, user and system.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
