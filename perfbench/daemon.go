package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gullible/internal/daemon"
	"gullible/internal/scriptcache"
	"gullible/internal/telemetry"
)

// jobTimeout bounds the wait for one daemon job, which takes a fraction of a
// second. A job that has not reached a terminal state by then fails the
// run's output check.
const jobTimeout = 30 * time.Second

// daemonLoop is the state two clients share while they drive one daemon.
type daemonLoop struct {
	d      *daemon.Daemon
	traced bool

	mu        sync.Mutex
	artifacts map[string]string // content address → hash of its artifact bytes
	executed  map[string]bool   // addresses some submit found uncached
	jobsMs    []float64
	hitsMs    []float64
	submitUs  []float64
	artUs     []float64
	sites     int
	account   accounting
	problems  []string

	pairs map[int]*pairSync // by pair index
}

func (lp *daemonLoop) problem(format string, args ...any) {
	lp.mu.Lock()
	lp.problems = append(lp.problems, fmt.Sprintf(format, args...))
	lp.mu.Unlock()
}

// pairSync orders the two submits of one pair.
type pairSync struct {
	arrived   int
	both      chan struct{} // closed when both clients have reached the pair
	submitted chan struct{} // closed once the leader's Submit has returned
}

// arrive marks client's arrival at pair k and returns the pair's sync.
func (lp *daemonLoop) arrive(k int) *pairSync {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	p, ok := lp.pairs[k]
	if !ok {
		p = &pairSync{both: make(chan struct{}), submitted: make(chan struct{})}
		lp.pairs[k] = p
	}
	if p.arrived++; p.arrived == 2 {
		close(p.both)
	}
	return p
}

// pairLeader is the client that submits pair k first. Both clients wait
// until the other has reached the pair; the leader submits, and the other
// submits the same spec as soon as the leader's Submit has returned, while
// the job runs, so it coalesces onto it. Two submits at the very same moment
// would race inside Submit, where two identical jobs can both miss the
// coalescing check and run at once in one job directory; some of those runs
// fail, a different number on every run.
func pairLeader(k int) int { return k % 2 }

// do submits one spec and waits for its artifact, as a client of wpmd does:
// Submit, then the job's terminal state, then the artifact bytes. sites is
// the number of sites the job visits, counted once per address executed.
// submitted, if not nil, is closed as soon as Submit returns.
func (lp *daemonLoop) do(spec daemon.JobSpec, sites int, submitted chan struct{}) {
	start := time.Now()
	st, err := lp.d.Submit(spec, "bench")
	submitEnd := time.Now()
	if submitted != nil {
		close(submitted)
	}
	if err != nil {
		lp.mu.Lock()
		lp.account.JobsSubmitted++
		if errors.Is(err, daemon.ErrQueueFull) || errors.Is(err, daemon.ErrTenantBudget) {
			lp.account.JobsRejected++
		} else {
			lp.account.JobsFailed++
			lp.problems = append(lp.problems, fmt.Sprintf("submit: %v", err))
		}
		lp.mu.Unlock()
		return
	}
	state := st.State
	if !st.Cached {
		lp.mu.Lock()
		if !lp.executed[st.ID] {
			lp.executed[st.ID] = true
			lp.sites += sites
		}
		lp.mu.Unlock()
		j, ok := lp.d.Job(st.ID)
		if !ok {
			lp.problem("job %s vanished after Submit", st.ID)
			return
		}
		select {
		case <-j.Done():
			state = j.Status().State
		case <-time.After(jobTimeout):
			lp.problem("job %s not terminal after %s", st.ID, jobTimeout)
			return
		}
	}
	artStart := time.Now()
	var art []byte
	if state == daemon.JobDone {
		var ok bool
		if art, _, ok = lp.d.Artifact(st.ID); !ok {
			state = daemon.JobFailed
		}
	}
	end := time.Now()

	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.account.JobsSubmitted++
	if state != daemon.JobDone {
		lp.account.JobsFailed++
		return
	}
	lp.account.JobsCompleted++
	if st.Cached {
		lp.account.JobsCached++
	}
	if spec.Kind == daemon.KindReplay {
		lp.account.JobsReplays++
	}
	sum := sha256.Sum256(art)
	hash := hex.EncodeToString(sum[:])
	if prev, seen := lp.artifacts[st.ID]; !seen {
		lp.artifacts[st.ID] = hash
	} else if prev != hash {
		lp.problems = append(lp.problems, fmt.Sprintf("job %s served different artifact bytes (%s, then %s)", st.ID, prev, hash))
	}
	total := ms(end.Sub(start))
	if st.Cached {
		lp.hitsMs = append(lp.hitsMs, total)
	} else {
		lp.jobsMs = append(lp.jobsMs, total)
	}
	if lp.traced {
		lp.submitUs = append(lp.submitUs, float64(submitEnd.Sub(start))/1e3)
		lp.artUs = append(lp.artUs, float64(end.Sub(artStart))/1e3)
	}
}

// client runs one client's ops. Both clients hold the same pairs in the same
// order, so each reaches every pair and neither waits for itself.
func (lp *daemonLoop) client(c int, ops []op, jobSites int) {
	for _, o := range ops {
		var submitted chan struct{}
		if o.Kind == opPair {
			p := lp.arrive(o.Pair)
			<-p.both
			if pairLeader(o.Pair) == c {
				submitted = p.submitted
			} else {
				<-p.submitted
			}
		}
		lp.do(o.Spec, jobSites, submitted)
	}
}

// runDaemonJob opens an in-process wpmd, runs the warm-up jobs, then drives it
// with a closed loop of two clients through the job's mix.
func runDaemonJob(job childJob, sz sizes) (*childResult, error) {
	mix := newDaemonMix(job.Seed, job.Index, sz)
	tel := telemetry.New()
	d, err := daemon.Open(daemon.Config{
		Dir: filepath.Join(job.Dir, "wpmd"), Executors: 2, CrawlWorkers: 1, Telemetry: tel,
		NowNanos: func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return nil, err
	}
	lp := &daemonLoop{d: d, traced: job.Traced, artifacts: map[string]string{}, executed: map[string]bool{},
		pairs: map[int]*pairSync{}}
	// the untimed warm-up crawls show the GOGC sched sets for a daemon crawl
	gogc := startGOGCSampler()
	var wg sync.WaitGroup
	for _, spec := range mix.Warmup {
		wg.Add(1)
		go func(spec daemon.JobSpec) {
			defer wg.Done()
			lp.do(spec, sz.JobSites, nil)
		}(spec)
	}
	wg.Wait()
	res := &childResult{Digests: map[string]string{}, GOGCInCrawl: gogc.Stop()}
	if len(lp.problems) > 0 || lp.account.JobsFailed > 0 {
		d.Drain()
		return nil, fmt.Errorf("warm-up jobs failed: %v", lp.problems)
	}
	lp.account, lp.executed, lp.jobsMs, lp.hitsMs, lp.sites = accounting{}, map[string]bool{}, nil, nil, 0
	res.CacheEntriesAtStart = scriptcache.Shared.Len()
	signalReady()

	var prof *cpuProfile
	var rt0 runtimeCounters
	if job.Traced {
		if prof, err = startCPUProfile(job.Dir); err != nil {
			d.Drain()
			return nil, err
		}
		rt0 = readRuntime()
	}
	snap0 := tel.Snapshot()
	cache0 := scriptcache.Shared.Snapshot()
	cpu0 := cpuTime()
	start := time.Now()
	for c := range mix.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lp.client(c, mix.Clients[c], sz.JobSites)
		}(c)
	}
	wg.Wait()
	res.BusyS = time.Since(start).Seconds()
	res.CPUS = cpuTime() - cpu0
	res.PeakRSSMB = peakRSSMB()
	cache1 := scriptcache.Shared.Snapshot()
	snap1 := tel.Snapshot()
	if job.Traced {
		rt1 := readRuntime()
		if res.Profile, err = prof.Stop(); err != nil {
			d.Drain()
			return nil, err
		}
		res.Layers = lp.daemonLayers(snap0, snap1)
		runtimeLayers(res.Layers, rt0, rt1, lp.sites, lp.account.JobsSubmitted)
		cacheLayers(res.Layers, cache0, cache1, lp.account.JobsSubmitted)
	}
	d.Drain()

	delta := func(name string) int { return int(snap1.Total(name) - snap0.Total(name)) }
	executions := delta("daemon_jobs_completed_total") + delta("daemon_jobs_failed_total")
	lp.account.JobsDuplicated = max(executions-len(lp.executed), 0)
	res.Account = lp.account
	res.JobsMs, res.HitsMs, res.Sites = lp.jobsMs, lp.hitsMs, lp.sites
	res.Completed = lp.account.JobsCompleted
	res.Problems = lp.problems
	res.Digests = lp.artifacts
	if lp.account.JobsSubmitted == 0 {
		res.problem("the closed loop submitted no job")
	}
	return res, nil
}

// daemonLayers reads the per-layer metrics of a traced daemon loop: call
// timings at the daemon API, the daemon's own telemetry, and the sealed
// traces of every job the loop executed. Counts are per submitted job.
func (lp *daemonLoop) daemonLayers(snap0, snap1 *telemetry.Snapshot) map[string]float64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	delta := func(name string) float64 { return float64(snap1.Total(name) - snap0.Total(name)) }
	jobs := float64(max(lp.account.JobsSubmitted, 1))
	m := map[string]float64{}
	if len(lp.submitUs) > 0 {
		m["daemon.submit_us"] = quantile(lp.submitUs, 0.5)
		m["daemon.artifact_us"] = quantile(lp.artUs, 0.5)
	}
	hits, misses := delta("daemon_cache_hits_total"), delta("daemon_cache_misses_total")
	if hits+misses > 0 {
		m["daemon.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["daemon.coalesced"] = delta("daemon_jobs_coalesced_total") / jobs
	if len(lp.executed) > 0 {
		m["daemon.executions_per_address"] = (delta("daemon_jobs_completed_total") + delta("daemon_jobs_failed_total")) / float64(len(lp.executed))
	}
	m["openwpm.pages"] = delta("crawl_pages_total") / jobs
	m["openwpm.restarts"] = delta("crawl_restarts_total") / jobs
	m["faults.injected"] = delta("faults_injected_total") / jobs
	m["wal.syncs"] = delta("wal_fsyncs_total") / jobs
	var events, traceBytes, bundleBytes float64
	for addr := range lp.executed {
		if data, _, ok := lp.d.Artifact(addr + "-trace"); ok {
			events += float64(bytes.Count(data, []byte{'\n'}))
			traceBytes += float64(len(data))
		}
		if data, meta, ok := lp.d.Artifact(addr); ok && meta.Kind == daemon.KindCrawl {
			bundleBytes += float64(len(data))
		}
	}
	m["trace.span_events"] = events / jobs
	m["trace.bytes"] = traceBytes / jobs
	if lp.sites > 0 {
		m["bundle.mb_per_site"] = bundleBytes / (1 << 20) / float64(lp.sites)
	}
	if len(lp.jobsMs) > 0 {
		m["daemon.job_p90_ms"] = quantile(lp.jobsMs, 0.9)
	}
	if len(lp.hitsMs) > 0 {
		m["daemon.hit_p50_ms"] = quantile(lp.hitsMs, 0.5)
	}
	return m
}
