package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gullible/internal/bundle"
	"gullible/internal/httpsim"
	"gullible/internal/openwpm"
	"gullible/internal/wal"
)

// This file holds the timing shims of a traced run. Each wraps one public
// seam of the program and delegates every call unchanged, so a traced crawl
// produces the same bytes as an untraced one (the scan checks it). Counters
// are atomic: shards call their shims from separate goroutines.

// busy accumulates a call count and the wall time spent inside the calls.
type busy struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (b *busy) add(start time.Time) {
	b.calls.Add(1)
	b.nanos.Add(int64(time.Since(start)))
}

func (b *busy) seconds() float64 { return float64(b.nanos.Load()) / 1e9 }

// layers is everything the shims of one traced job measure.
type layers struct {
	roundtrip busy
	bodyBytes atomic.Int64
	tamper    busy
	appends   busy
	wrote     atomic.Int64
	syncs     busy
	reads     busy
	read      atomic.Int64

	// set once the crawl has returned
	mergeS, skewS, analyzeS float64

	mu        sync.Mutex
	siteMs    []float64
	shardEnds []time.Time
}

func (l *layers) siteDone(ms float64) {
	l.mu.Lock()
	l.siteMs = append(l.siteMs, ms)
	l.mu.Unlock()
}

func (l *layers) shardDone(at time.Time) {
	l.mu.Lock()
	l.shardEnds = append(l.shardEnds, at)
	l.mu.Unlock()
}

// shardSpan returns the first and last shard end.
func (l *layers) shardSpan() (first, last time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ends := append([]time.Time(nil), l.shardEnds...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	if len(ends) == 0 {
		return time.Time{}, time.Time{}
	}
	return ends[0], ends[len(ends)-1]
}

// transportShim times CrawlConfig.Transport. It also knows its shard's site
// list: a request for the next site's front page starts that site, which
// gives per-site wall time without a hook inside the crawler. The scheduler
// asks a shard's transport for CountsByName once the shard has finished, so
// that call marks the shard's end.
type transportShim struct {
	next  httpsim.RoundTripper
	l     *layers
	index map[string]int

	mu        sync.Mutex
	cur       int
	siteStart time.Time
}

func newTransportShim(next httpsim.RoundTripper, sites []string, l *layers) *transportShim {
	index := make(map[string]int, len(sites))
	for i, s := range sites {
		index[s] = i
	}
	return &transportShim{next: next, l: l, index: index, cur: -1}
}

func (t *transportShim) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	start := time.Now()
	if i, ok := t.index[req.URL]; ok {
		t.mu.Lock()
		if i > t.cur {
			if t.cur >= 0 {
				t.l.siteDone(ms(start.Sub(t.siteStart)))
			}
			t.cur, t.siteStart = i, start
		}
		t.mu.Unlock()
	}
	resp, err := t.next.RoundTrip(req)
	t.l.roundtrip.add(start)
	if resp != nil {
		t.l.bodyBytes.Add(int64(len(resp.Body)))
	}
	return resp, err
}

// CountsByName closes the shard's last site and forwards to the wrapped
// transport's fault tally when it keeps one.
func (t *transportShim) CountsByName() map[string]int {
	now := time.Now()
	t.mu.Lock()
	if t.cur >= 0 {
		t.l.siteDone(ms(now.Sub(t.siteStart)))
		t.cur = len(t.index)
	}
	t.mu.Unlock()
	t.l.shardDone(now)
	if fc, ok := t.next.(interface{ CountsByName() map[string]int }); ok {
		return fc.CountsByName()
	}
	return nil
}

// tamperShim times CrawlConfig.Tamper.
func tamperShim(next openwpm.TamperFunc, l *layers) openwpm.TamperFunc {
	return func(content string) (openwpm.TamperRecord, bool) {
		start := time.Now()
		rec, ok := next(content)
		l.tamper.add(start)
		return rec, ok
	}
}

// backendShim times every append to a shard's storage backend. It is also a
// bundle.Spool, because the WAL backend it wraps is one and the scheduler
// spools recorded bundles through the shard backend.
type backendShim struct {
	next openwpm.Backend
	l    *layers
}

// wrapBackend wraps a backend factory. A factory that returns nil (a log that
// could not open) still returns nil.
func wrapBackend[S any](factory func(S) openwpm.Backend, l *layers) func(S) openwpm.Backend {
	return func(sh S) openwpm.Backend {
		be := factory(sh)
		if be == nil {
			return nil
		}
		return &backendShim{next: be, l: l}
	}
}

func (b *backendShim) timed(start time.Time, err error) error {
	b.l.appends.add(start)
	return err
}

func (b *backendShim) AppendVisit(r openwpm.VisitRecord) error {
	return b.timed(time.Now(), b.next.AppendVisit(r))
}
func (b *backendShim) AppendCrash(r openwpm.CrashRecord) error {
	return b.timed(time.Now(), b.next.AppendCrash(r))
}
func (b *backendShim) AppendRequest(r openwpm.RequestRecord) error {
	return b.timed(time.Now(), b.next.AppendRequest(r))
}
func (b *backendShim) AppendCookie(r openwpm.CookieEntry) error {
	return b.timed(time.Now(), b.next.AppendCookie(r))
}
func (b *backendShim) AppendJSCall(r openwpm.JSCall) error {
	return b.timed(time.Now(), b.next.AppendJSCall(r))
}
func (b *backendShim) AppendScriptFile(url, sha, content, ctype string) error {
	return b.timed(time.Now(), b.next.AppendScriptFile(url, sha, content, ctype))
}
func (b *backendShim) AppendTamper(r openwpm.TamperRecord) error {
	return b.timed(time.Now(), b.next.AppendTamper(r))
}
func (b *backendShim) AppendDrop(table, site string) error {
	return b.timed(time.Now(), b.next.AppendDrop(table, site))
}
func (b *backendShim) AppendCheckpoint(o openwpm.SiteOutcome, recorder, trace []byte) error {
	return b.timed(time.Now(), b.next.AppendCheckpoint(o, recorder, trace))
}
func (b *backendShim) Flush() error { return b.next.Flush() }
func (b *backendShim) Close() error { return b.next.Close() }

func (b *backendShim) SpoolBody(sha, content string) error {
	return b.next.(bundle.Spool).SpoolBody(sha, content)
}
func (b *backendShim) SpoolVisit(v bundle.Visit) error {
	return b.next.(bundle.Spool).SpoolVisit(v)
}

// fsShim times the wal.FS a shard log writes to and recovery reads from.
type fsShim struct {
	next wal.FS
	l    *layers
}

func (f fsShim) Create(name string) (wal.File, error) {
	file, err := f.next.Create(name)
	if err != nil {
		return nil, err
	}
	return fileShim{next: file, l: f.l}, nil
}

func (f fsShim) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.next.ReadFile(name)
	f.l.reads.add(start)
	f.l.read.Add(int64(len(data)))
	return data, err
}

func (f fsShim) List() ([]string, error)                { return f.next.List() }
func (f fsShim) Truncate(name string, size int64) error { return f.next.Truncate(name, size) }
func (f fsShim) Remove(name string) error               { return f.next.Remove(name) }

type fileShim struct {
	next wal.File
	l    *layers
}

func (f fileShim) Write(p []byte) (int, error) {
	n, err := f.next.Write(p)
	f.l.wrote.Add(int64(n))
	return n, err
}

func (f fileShim) Sync() error {
	start := time.Now()
	err := f.next.Sync()
	f.l.syncs.add(start)
	return err
}

func (f fileShim) Close() error { return f.next.Close() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
