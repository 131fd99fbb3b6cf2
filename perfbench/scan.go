package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gullible/internal/analysis"
	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/scriptcache"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// scanConfig is the Sec. 4 crawler configuration exactly as
// experiments.RunScanObserved builds it for wpmscan. A traced job builds its
// own copy so the shims can wrap its seams; the digest check between traced
// and untraced jobs proves the copy still matches.
func scanConfig(world *websim.World, subpages int) openwpm.CrawlConfig {
	return openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "scan-client",
		DwellSeconds: 60,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true,
		HoneyProps:       4,
		MaxSubpages:      subpages,
		Tamper:           analysis.TamperRecorder,
	}
}

// scanRun is one crawl of a scan or durable job.
type scanRun struct {
	storage *openwpm.Storage
	report  *openwpm.CrawlReport
	bundle  *bundle.Bundle
	cp      *sched.Checkpoint
}

// crawl runs the scan. Untraced, it goes through experiments.RunScanObserved
// exactly as wpmscan does. Traced, it calls sched.Run with the shims in
// place and times the classification pass on its own. Either way it reads
// the GOGC in force into gogc at the crawl's final progress event, which
// sched sends before it restores the setting.
func crawl(world *websim.World, in scanInput, opts experiments.ScanOptions, l *layers, gogc *float64) (*scanRun, error) {
	onProgress := func(done, total int) {
		if done == total {
			*gogc = gogcNow()
		}
	}
	if l == nil {
		r, err := experiments.RunScanObserved(world, in.Pool, opts, experiments.ProgressFunc(onProgress))
		if err != nil {
			return nil, err
		}
		return &scanRun{storage: r.Storage, report: r.Report, bundle: r.Bundle, cp: r.Checkpoint}, nil
	}
	c := sched.Crawl{
		Sites: in.Sites, Workers: opts.Workers,
		Record: opts.RecordBundle, BundleMeta: opts.BundleMeta,
		Resume: opts.Resume, OnProgress: onProgress,
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			cfg := scanConfig(world, opts.MaxSubpages)
			cfg.Transport = newTransportShim(cfg.Transport, sh.Sites, l)
			cfg.Tamper = tamperShim(cfg.Tamper, l)
			return cfg
		},
	}
	if opts.Backend != nil {
		c.Backend = wrapBackend(opts.Backend, l)
	}
	res, err := sched.Run(c)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	if first, last := l.shardSpan(); !last.IsZero() {
		l.mergeS = end.Sub(last).Seconds()
		l.skewS = last.Sub(first).Seconds()
	}
	tm := openwpm.NewTaskManager(scanConfig(world, opts.MaxSubpages))
	tm.Storage = res.Storage
	start := time.Now()
	experiments.Analyze(world, tm, in.Pool)
	l.analyzeS = time.Since(start).Seconds()
	return &scanRun{storage: res.Storage, report: res.Report, bundle: res.Bundle, cp: res.Checkpoint}, nil
}

// runScanJob runs one scan job, or one durable job: the same crawl on WAL
// backends with bundle recording, sealed and written out, then rebuilt from
// the shard logs as wpmscan -recover does.
func runScanJob(job childJob, sz sizes) (*childResult, error) {
	durable := job.Workload == "durable"
	n := sz.ScanSites
	if durable {
		n = sz.DurableSites
	}
	in := newScanInput(job.Seed, job.Index, n, sz)
	world := websim.New(websim.Options{Seed: in.WorldSeed, NumSites: in.Pool})
	opts := experiments.ScanOptions{Sites: in.Sites, MaxSubpages: sz.ScanSubpages, Workers: runtime.NumCPU()}
	walDir := filepath.Join(job.Dir, "wal")
	walOpts := wal.Options{Sync: wal.SyncCheckpoint}
	var l *layers
	var fsFactory func(sched.Shard) wal.FS
	if job.Traced {
		l = &layers{}
	}
	if durable {
		opts.RecordBundle = true
		opts.BundleMeta = map[string]string{"tool": "perfbench", "worldSeed": fmt.Sprint(in.WorldSeed)}
		dirs := sched.ShardDirFS(walDir)
		fsFactory = dirs
		if l != nil {
			fsFactory = func(sh sched.Shard) wal.FS { return fsShim{next: dirs(sh), l: l} }
		}
		workers := sched.Workers(opts.Workers, len(in.Sites))
		opts.Backend = sched.WALBackend(fsFactory, workers, true, opts.BundleMeta, walOpts)
	}
	res := &childResult{Digests: map[string]string{}, CacheEntriesAtStart: scriptcache.Shared.Len()}
	signalReady()

	var prof *cpuProfile
	var rt0 runtimeCounters
	cache0 := scriptcache.Shared.Snapshot()
	if l != nil {
		var err error
		if prof, err = startCPUProfile(job.Dir); err != nil {
			return nil, err
		}
		rt0 = readRuntime()
	}
	cpu0 := cpuTime()
	start := time.Now()
	run, err := crawl(world, in, opts, l, &res.GOGCInCrawl)
	if err != nil {
		return nil, err
	}
	bundlePath := filepath.Join(job.Dir, "scan.bundle.json")
	var bundleBytes int64
	if durable {
		if err := run.cp.CloseBackends(); err != nil {
			return nil, fmt.Errorf("seal WAL: %w", err)
		}
		if run.bundle == nil {
			return nil, fmt.Errorf("durable scan recorded no bundle")
		}
		if err := run.bundle.WriteFile(bundlePath); err != nil {
			return nil, err
		}
		if st, err := os.Stat(bundlePath); err == nil {
			bundleBytes = st.Size()
		}
	}
	res.CrawlS = time.Since(start).Seconds()
	var recovered *scanRun
	if durable {
		recStart := time.Now()
		if recovered, err = recoverScan(in, opts, walDir, walOpts, fsFactory, l); err != nil {
			return nil, err
		}
		res.RecoverS = time.Since(recStart).Seconds()
	}
	res.BusyS = time.Since(start).Seconds()
	res.CPUS = cpuTime() - cpu0
	res.PeakRSSMB = peakRSSMB()
	cache1 := scriptcache.Shared.Snapshot()
	if l != nil {
		rt1 := readRuntime()
		if res.Profile, err = prof.Stop(); err != nil {
			return nil, err
		}
		res.Layers = l.scanLayers(run, in, bundleBytes)
		runtimeLayers(res.Layers, rt0, rt1, len(in.Sites), 1)
		cacheLayers(res.Layers, cache0, cache1, 1)
	}

	res.Sites = len(in.Sites)
	res.Completed = 1
	rep := run.report
	res.Account = accounting{
		SitesAttempted: rep.Sites, SitesCompleted: rep.Completed, SitesSalvaged: rep.Salvaged,
		SitesFailed: rep.Failed, SitesSkipped: rep.Skipped,
	}
	live := run.storage.Digest()
	res.Digests[fmt.Sprintf("job %d storage", job.Index)] = live
	if rep.Sites != len(in.Sites) || rep.Completed+rep.Salvaged+rep.Failed+rep.Skipped != rep.Sites {
		res.problem("crawl report does not account for every site: %+v", *rep)
	}
	if durable {
		res.Digests[fmt.Sprintf("job %d bundle", job.Index)] = run.bundle.Digest
		if _, err := bundle.ReadFile(bundlePath); err != nil {
			res.problem("written bundle does not verify: %v", err)
		}
		if got := recovered.storage.Digest(); got != live {
			res.problem("recovered storage digest %s differs from live %s", got, live)
		}
		if recovered.bundle == nil || recovered.bundle.Digest != run.bundle.Digest {
			res.problem("recovered bundle differs from the live bundle")
		}
	}
	return res, nil
}

// recoverScan rebuilds a durable scan from its shard logs and finishes it:
// every shard is complete, so nothing is crawled again and the result is
// merged and classified from the recovered state.
func recoverScan(in scanInput, opts experiments.ScanOptions, walDir string, walOpts wal.Options,
	fsFactory func(sched.Shard) wal.FS, l *layers) (*scanRun, error) {
	fss, err := sched.ListShardFSs(walDir)
	if err != nil {
		return nil, err
	}
	if l != nil {
		for i, fs := range fss {
			fss[i] = fsShim{next: fs, l: l}
		}
	}
	cp, _, err := sched.Recover(fss, walOpts)
	if err != nil {
		return nil, err
	}
	opts.Resume = cp
	opts.Workers = cp.Workers
	opts.Backend = sched.WALBackend(fsFactory, cp.Workers, true, opts.BundleMeta, walOpts)
	world := websim.New(websim.Options{Seed: in.WorldSeed, NumSites: in.Pool})
	var run *scanRun
	var gogc float64
	if l == nil {
		run, err = crawl(world, in, opts, nil, &gogc)
	} else {
		// the recovery's own merge must not overwrite the live crawl's
		run, err = crawl(world, in, opts, &layers{}, &gogc)
	}
	if err != nil {
		return nil, err
	}
	if err := run.cp.CloseBackends(); err != nil {
		return nil, fmt.Errorf("close recovered WAL: %w", err)
	}
	return run, nil
}

// scanLayers turns a traced scan or durable job's shim readings into the
// per-layer metrics.
func (l *layers) scanLayers(run *scanRun, in scanInput, bundleBytes int64) map[string]float64 {
	m := map[string]float64{}
	sites := float64(len(in.Sites))
	if len(l.siteMs) > 0 {
		m["openwpm.site_p50_ms"] = quantile(l.siteMs, 0.50)
		m["openwpm.site_p99_ms"] = quantile(l.siteMs, 0.99)
	}
	m["openwpm.pages"] = float64(run.report.PageVisits)
	m["openwpm.restarts"] = float64(run.report.Restarts)
	m["httpsim.roundtrips"] = float64(l.roundtrip.calls.Load())
	m["httpsim.roundtrip_s"] = l.roundtrip.seconds()
	m["httpsim.body_mb"] = float64(l.bodyBytes.Load()) / (1 << 20)
	m["analysis.tamper_calls"] = float64(l.tamper.calls.Load())
	m["analysis.tamper_s"] = l.tamper.seconds()
	m["analysis.analyze_s"] = l.analyzeS
	m["store.records"] = float64(l.appends.calls.Load())
	m["store.append_s"] = l.appends.seconds()
	if s := l.appends.seconds(); s > 0 {
		m["wal.records_per_s"] = float64(l.appends.calls.Load()) / s
	}
	m["wal.write_mb"] = float64(l.wrote.Load()) / (1 << 20)
	m["wal.syncs"] = float64(l.syncs.calls.Load())
	m["wal.sync_s"] = l.syncs.seconds()
	m["wal.read_mb"] = float64(l.read.Load()) / (1 << 20)
	m["wal.read_s"] = l.reads.seconds()
	m["sched.merge_s"] = l.mergeS
	m["sched.shard_skew_s"] = l.skewS
	m["bundle.mb_per_site"] = float64(bundleBytes) / (1 << 20) / sites
	return m
}

// cacheLayers adds the script cache's work between two snapshots, per job.
func cacheLayers(m map[string]float64, before, after scriptcache.Stats, jobs int) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	per := float64(max(jobs, 1))
	m["scriptcache.hits"] = hits / per
	m["scriptcache.misses"] = misses / per
	m["scriptcache.evictions"] = float64(after.Evictions-before.Evictions) / per
	if hits+misses > 0 {
		m["scriptcache.hit_ratio"] = hits / (hits + misses)
	}
}
