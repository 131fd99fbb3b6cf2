package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host the benchmark runs on is shared: its speed moves by tens of
// percent from one minute to the next as other tenants load the cores, and a
// shift lasts long enough to cover whole runs. A calibration measures that
// speed. It runs a fixed piece of work that belongs to the benchmark, not to
// the program, on as many goroutines as the machine has CPUs, in the parent
// process while no child runs: right before a child starts and right after it
// ends. Its timings change with the host and never with the program.

// calibration is one timing of the fixed work: its wall time, and the CPU
// time it took per goroutine. Only the CPU time adjusts the metrics; the wall
// time shows in the detail line how much CPU the host withheld.
type calibration struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// calRefS is the reference host: one on which the calibration takes 0.1 s of
// CPU time per goroutine, about what it took on the 2-vCPU virtual machine
// (Intel Xeon, Go 1.24) the bounds were set on.
const calRefS = 0.1

// hostSlowdown returns how many times slower than the reference host the
// host ran around r's job: the mean CPU time of the calibrations right before
// and right after the child, against calRefS. End-to-end times are divided by
// it and rates multiplied by it. It reads CPU time, not wall time: a
// calibration's wall time also counts the CPU withheld from it in its tenth
// of a second, which comes and goes within a child's job, while the speed of
// the CPU it did get moves over minutes.
func hostSlowdown(r *childResult) float64 {
	return (r.Cal[0].CPUS + r.Cal[1].CPUS) / 2 / calRefS
}

// calRounds is how often each goroutine repeats calRound in one calibration.
const calRounds = 20

// calibrate runs the fixed work on runtime.NumCPU() goroutines and times it.
func calibrate() calibration {
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	sink := make([]uint64, n)
	cpu0 := cpuTime()
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < calRounds; r++ {
				sink[g] += calRound(uint64(r))
			}
		}(g)
	}
	wg.Wait()
	c := calibration{WallS: time.Since(start).Seconds(), CPUS: (cpuTime() - cpu0) / float64(n)}
	calSink = sink
	return c
}

// calSink keeps the calibration's results alive so the work is not
// optimised away.
var calSink []uint64

// calNode is a small heap object of the kind a crawler allocates by the
// million: a DOM node, a JS object, a recorded row.
type calNode struct {
	key   string
	val   uint64
	left  *calNode
	right *calNode
}

// calRound mixes the work the program does on a visit: short-lived strings
// and objects, map inserts and lookups, sorting, pointer chasing and a
// branchy dispatch loop, with the garbage collection they cause.
func calRound(seed uint64) uint64 {
	const n = 6000
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[string]*calNode, n/4)
	keys := make([]string, 0, n)
	var root *calNode
	for i := 0; i < n; i++ {
		k := "k" + strconv.FormatUint(next()%(n/2), 36) + "." + strconv.Itoa(i%97)
		nd := &calNode{key: k, val: next()}
		if prev, ok := m[k]; ok {
			nd.left = prev
		}
		m[k] = nd
		keys = append(keys, k)
		// an unbalanced tree: pointer chasing of random depth
		if root == nil {
			root = nd
			continue
		}
		for p := root; ; {
			if k < p.key {
				if p.left == nil {
					p.left = nd
					break
				}
				p = p.left
			} else {
				if p.right == nil {
					p.right = nd
					break
				}
				p = p.right
			}
		}
	}
	sort.Strings(keys)
	var acc uint64
	for i, k := range keys {
		if nd, ok := m[k]; ok {
			acc += nd.val >> (i % 7)
		}
	}
	// a stack machine over a pseudo-random program
	code := make([]byte, 4096)
	for i := range code {
		code[i] = byte(next() % 6)
	}
	stack := make([]uint64, 0, 64)
	for pass := 0; pass < 8; pass++ {
		for _, op := range code {
			switch op {
			case 0:
				stack = append(stack, acc)
			case 1:
				if len(stack) > 1 {
					a, b := stack[len(stack)-1], stack[len(stack)-2]
					stack = append(stack[:len(stack)-2], a+b)
				}
			case 2:
				if len(stack) > 0 {
					stack[len(stack)-1] *= 31
				}
			case 3:
				acc ^= acc >> 3
			case 4:
				if len(stack) > 32 {
					stack = stack[:8]
				}
			case 5:
				acc += uint64(len(stack))
			}
		}
	}
	return acc
}
