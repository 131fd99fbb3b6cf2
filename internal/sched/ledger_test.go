package sched_test

import (
	"testing"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// ledgerSeries are the degradation counters and histograms the crawl's
// recovery paths bump: the metrics registry is their only record.
var ledgerSeries = []string{
	"crawl_breaker_trips_total",
	"crawl_budget_skips_total",
	"crawl_sites_total{outcome=salvaged}",
	"crawl_backoff_seconds",
	"disk_faults_total",
	"storage_backend_errors_total",
}

// ledgerValue reads one ledger series: a counter total, a labelled counter,
// or a histogram's observation count.
func ledgerValue(s *telemetry.Snapshot, name string) int64 {
	if h, ok := s.Histograms[name]; ok {
		return h.Count
	}
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Total(name)
}

// ledgerCrawl runs a hardened 60-site crawl on per-shard WALs with a tight
// crawl-time budget, either under the heavy network fault profile and a
// disk that fills up, or fault-free, and returns its metrics snapshot.
func ledgerCrawl(t *testing.T, faulted bool) *telemetry.Snapshot {
	t.Helper()
	const sites, workers = 60, 2
	world := websim.New(websim.Options{Seed: 11, NumSites: sites, AvailabilityAttacks: faulted})
	tel := telemetry.New()
	// a small flush threshold makes appends flush, so a full disk surfaces
	// as backend append errors rather than only at checkpoints
	walOpts := wal.Options{Telemetry: tel, FlushBytes: 1 << 10}
	if faulted {
		walOpts.Disk = faults.NewDiskInjector(5, faults.DiskProfile{ByteBudget: 64 << 10})
		walOpts.Disk.SetTelemetry(tel)
	}
	fss := []*wal.MemFS{wal.NewMemFS(), wal.NewMemFS()}
	r, err := sched.Run(sched.Crawl{
		Sites:     websim.Tranco(sites),
		Workers:   workers,
		Telemetry: tel,
		Backend: sched.WALBackend(func(sh sched.Shard) wal.FS { return fss[sh.Index] },
			workers, false, nil, walOpts),
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			cfg := openwpm.CrawlConfig{
				OS: jsdom.Ubuntu, Mode: jsdom.Regular,
				Transport: world, ClientID: "ledger-client",
				DwellSeconds:   5,
				HTTPInstrument: true, CookieInstrument: true,
				MaxSubpages:      3,
				BreakerThreshold: 2,
				MaxCrawlSeconds:  float64(len(sh.Sites)) * 90,
				Telemetry:        tel,
			}.Hardened()
			if faulted {
				inj := faults.NewInjector(3, faults.HeavyProfile(), world)
				inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
				inj.SetTelemetry(tel)
				cfg.Transport = inj
			}
			return cfg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint.CloseBackends(); err != nil && !faulted {
		t.Fatal(err)
	}
	return tel.Snapshot()
}

// TestDegradationLedger: every degradation a hardened crawl can take shows
// up in the metrics ledger when the crawl is faulted, and reads zero when it
// is not.
func TestDegradationLedger(t *testing.T) {
	faulted := ledgerCrawl(t, true)
	clean := ledgerCrawl(t, false)
	for _, name := range ledgerSeries {
		if v := ledgerValue(faulted, name); v == 0 {
			t.Errorf("faulted crawl: %s = 0, want > 0", name)
		}
		if v := ledgerValue(clean, name); v != 0 {
			t.Errorf("fault-free crawl: %s = %d, want 0", name, v)
		}
	}
}
