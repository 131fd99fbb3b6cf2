package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gullible/internal/daemon"
	"gullible/internal/websim"
)

// DefaultSeed is the seed the reference digest below was recorded with.
const DefaultSeed = 1

// HeldOutSeed is never used while tuning the benchmark or a change to the
// program. A later claim of a gain must also hold when the benchmark is run
// with --seed 7919.
const HeldOutSeed = 7919

// sizes fixes how much work one job of each workload does. Measuring runs
// use the default sizes; the tests use the smoke sizes.
type sizes struct {
	Name string
	// ScanSites is the number of sites one scan or durable job crawls, each
	// with up to ScanSubpages subpages, drawn from the top PoolFactor×ScanSites
	// ranks.
	ScanSites    int
	DurableSites int
	ScanSubpages int
	PoolFactor   int
	// JobSites and JobSubpages size one daemon crawl job: the top JobSites
	// sites of a world of that many sites.
	JobSites    int
	JobSubpages int
	// WarmupJobs cold crawl jobs run untimed before the daemon loop, in which
	// each of the two clients submits MixBlocks blocks of jobs.
	WarmupJobs int
	MixBlocks  int
	// MinReps is the least number of jobs one run measures, whatever
	// --seconds says.
	MinReps int
}

var sizeTable = map[string]sizes{
	"default": {Name: "default", ScanSites: 200, DurableSites: 120, ScanSubpages: 3, PoolFactor: 10,
		JobSites: 10, JobSubpages: 1, WarmupJobs: 4, MixBlocks: 10, MinReps: 3},
	"smoke": {Name: "smoke", ScanSites: 6, DurableSites: 4, ScanSubpages: 1, PoolFactor: 4,
		JobSites: 2, JobSubpages: 1, WarmupJobs: 1, MixBlocks: 1, MinReps: 1},
}

// referenceDigests are the merged storage digests of the first job of the
// scan and durable workloads at the default size, keyed by seed. A run with
// one of these seeds must reproduce its digest exactly.
var referenceDigests = map[string]map[int64]string{
	"scan":    {DefaultSeed: "2207f917f124387619cb97f99e858c1386001e84b27dca393ebfef70721c162d"},
	"durable": {DefaultSeed: "3ac9c533580af433d098b36932e8633d3e2dde9b0a44ce7f3b3ed20f8c994cdc"},
}

// scanInput is one scan or durable job's input: a world and a sample of its
// ranked sites, both drawn from the job's seed.
type scanInput struct {
	WorldSeed int64
	Pool      int
	Sites     []string
}

// sampleSites draws n distinct ranks from 1..pool and returns their front
// pages in rank order.
func sampleSites(rng *rand.Rand, n, pool int) []string {
	ranks := rng.Perm(pool)[:n]
	sort.Ints(ranks)
	out := make([]string, n)
	for i, r := range ranks {
		out[i] = websim.SiteURL(r + 1)
	}
	return out
}

// jobSeed is the seed of the index-th job of a run with seed. The first job
// of a run uses the run's seed itself.
func jobSeed(seed int64, index int) int64 { return seed ^ int64(index)<<32 }

func newScanInput(seed int64, index, sites int, sz sizes) scanInput {
	ws := jobSeed(seed, index)
	pool := sites * sz.PoolFactor
	return scanInput{WorldSeed: ws, Pool: pool, Sites: sampleSites(rand.New(rand.NewSource(ws)), sites, pool)}
}

// opKind is one daemon client operation.
type opKind string

const (
	opCold   opKind = "cold"   // a crawl nobody submitted before
	opRepeat opKind = "repeat" // an exact repeat of this client's earlier crawl
	opReplay opKind = "replay" // a stealth replay of this client's earlier crawl
	opPair   opKind = "pair"   // one new crawl that both clients submit, the second while it runs
)

// op is a daemon client's request. Pair is the index of the shared spec for
// opPair; pair k's leader submits it first (see pairLeader).
type op struct {
	Kind opKind
	Spec daemon.JobSpec
	Pair int
}

// daemonMix is the daemon workload's input: warm-up jobs and one seeded op
// sequence per client. Repeats and replays refer only to the client's own
// earlier solo crawls, so whether an op hits the cache does not depend on how
// the two clients interleave.
type daemonMix struct {
	Warmup  []daemon.JobSpec
	Clients [2][]op
}

// mixBlock is one block of a client's op sequence. Every block holds these
// ops in a seeded order, so all daemon jobs share one shape and differ only
// in their specs. The repository records no real traffic to take the shares
// from, so they are an assumption: one op of each kind the daemon serves
// differently (execute, answer from the cache, replay a bundle, coalesce
// onto a running job), none weighted above another. The detail line reports
// the hit and replay shares a run actually measured.
var mixBlock = []struct {
	kind opKind
	n    int
}{{opCold, 1}, {opRepeat, 1}, {opReplay, 1}, {opPair, 1}}

// Every faultShare-th crawl (solo and pair) runs under the default fault
// profile. The repository's example jobs are one of each: the README's
// quickstart crawl runs with faults=default, the daemon's Go benchmark job
// without.
const faultShare = 2

func newDaemonMix(seed int64, index int, sz sizes) daemonMix {
	rng := rand.New(rand.NewSource(jobSeed(seed, index)))
	used := map[int64]bool{}
	crawl := func() daemon.JobSpec {
		ws := rng.Int63n(1 << 40)
		for used[ws] {
			ws = rng.Int63n(1 << 40)
		}
		used[ws] = true
		// the shape of the daemon's Go benchmark job (internal/daemon's
		// benchSpec): the top sites of a small world, one subpage
		spec := daemon.JobSpec{Kind: daemon.KindCrawl, Seed: ws, NumSites: sz.JobSites, MaxSubpages: sz.JobSubpages}
		if len(used)%faultShare == 0 {
			spec.Faults = "default"
		}
		return spec
	}
	var m daemonMix
	for i := 0; i < sz.WarmupJobs; i++ {
		m.Warmup = append(m.Warmup, crawl())
	}
	var pairs []daemon.JobSpec
	for c := range m.Clients {
		var solo []daemon.JobSpec
		replayed := map[int]bool{}
		nPair := 0
		var kinds []opKind
		for b := 0; b < sz.MixBlocks; b++ {
			start := len(kinds)
			for _, k := range mixBlock {
				for i := 0; i < k.n; i++ {
					kinds = append(kinds, k.kind)
				}
			}
			rng.Shuffle(len(kinds)-start, func(i, j int) {
				kinds[start+i], kinds[start+j] = kinds[start+j], kinds[start+i]
			})
		}
		// repeats and replays need an earlier crawl
		kinds[0], kinds[slices.Index(kinds, opCold)] = opCold, kinds[0]
		for _, kind := range kinds {
			if kind == opReplay && len(replayed) == len(solo) {
				kind = opCold // every earlier crawl is replayed already
			}
			var o op
			switch kind {
			case opCold:
				o = op{Kind: opCold, Spec: crawl()}
				solo = append(solo, o.Spec)
			case opRepeat:
				o = op{Kind: opRepeat, Spec: solo[rng.Intn(len(solo))]}
			case opReplay:
				k := rng.Intn(len(solo))
				for replayed[k] {
					k = (k + 1) % len(solo)
				}
				replayed[k] = true
				addr, _, err := daemon.ContentAddress(solo[k])
				if err != nil {
					panic(fmt.Sprintf("perfbench: generated spec does not canonicalise: %v", err))
				}
				o = op{Kind: opReplay, Spec: daemon.JobSpec{Kind: daemon.KindReplay, Source: addr, Variant: "stealth"}}
			case opPair:
				if nPair == len(pairs) {
					pairs = append(pairs, crawl())
				}
				o = op{Kind: opPair, Spec: pairs[nPair], Pair: nPair}
				nPair++
			}
			m.Clients[c] = append(m.Clients[c], o)
		}
	}
	return m
}
