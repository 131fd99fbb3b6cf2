package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuBuckets attribute CPU samples to public entry points of the visit path.
// A sample belongs to the first bucket, in this order, with an entry point
// anywhere on its stack, so no sample counts twice: script execution and
// compilation inside instrument injection are injection, and parsing a
// script a page script inserted is compilation. Garbage collection is
// measured from the runtime instead (runtime.gc_cpu_share).
var cpuBuckets = []struct {
	metric string
	funcs  []string
}{
	{"browser.inject_cpu_share", []string{"gullible/internal/browser.(*Browser).InjectPageProgram"}},
	{"jsdom.build_cpu_share", []string{"gullible/internal/jsdom.Build"}},
	{"minjs.compile_cpu_share", []string{"gullible/internal/minjs.Parse", "gullible/internal/minjs.Compile"}},
	{"minjs.exec_cpu_share", []string{
		"gullible/internal/minjs.(*Interp).RunProgram",
		"gullible/internal/minjs.(*Interp).RunScript",
		"gullible/internal/minjs.(*Interp).CallFunction",
	}},
}

// cpuShares merges the CPU profiles with the toolchain's pprof and returns
// each bucket's share of all sampled CPU time.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return bucketTraces(out)
}

// bucketTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each opening with the sample's value and leaf frame and listing its
// callers down to the root.
func bucketTraces(out []byte) (map[string]float64, error) {
	rank := map[string]int{}
	for i, b := range cpuBuckets {
		for _, f := range b.funcs {
			rank[f] = i
		}
	}
	var total time.Duration
	byBucket := map[string]time.Duration{}
	var value time.Duration
	var frames []string
	flush := func() {
		if value == 0 {
			return
		}
		total += value
		best := len(cpuBuckets)
		for _, f := range frames {
			if r, ok := rank[f]; ok && r < best {
				best = r
			}
		}
		if best < len(cpuBuckets) {
			byBucket[cpuBuckets[best].metric] += value
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !strings.HasPrefix(line, "             ") {
			// the block's first line: value, then the leaf frame
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: the profiles hold no samples")
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b.metric] = float64(byBucket[b.metric]) / float64(total)
	}
	return shares, nil
}
