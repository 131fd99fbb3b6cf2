// Package stats provides the statistical tests the paper's evaluation uses:
// the Wilcoxon signed-rank test (Sec. 6.3 significance claims) and small
// descriptive helpers.
package stats

import (
	"math"
	"sort"
)

// WilcoxonResult is the outcome of a Wilcoxon signed-rank test.
type WilcoxonResult struct {
	W  float64 // min of positive/negative rank sums
	Z  float64 // normal approximation
	P  float64 // two-sided p-value
	N  int     // pairs with non-zero difference
	OK bool    // false when too few non-zero pairs
}

// Wilcoxon performs the paired signed-rank test on x vs y using the normal
// approximation with tie correction; pairs with zero difference are dropped
// (Wilcoxon's original treatment).
func Wilcoxon(x, y []float64) WilcoxonResult {
	if len(x) != len(y) {
		panic("stats: Wilcoxon requires equal-length samples")
	}
	type pair struct {
		abs  float64
		sign float64
	}
	var pairs []pair
	for i := range x {
		d := x[i] - y[i]
		if d == 0 {
			continue
		}
		p := pair{abs: math.Abs(d), sign: 1}
		if d < 0 {
			p.sign = -1
		}
		pairs = append(pairs, p)
	}
	n := len(pairs)
	if n < 5 {
		return WilcoxonResult{N: n}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].abs < pairs[j].abs })

	// assign average ranks to ties and accumulate the tie correction term
	ranks := make([]float64, n)
	tieTerm := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && pairs[j].abs == pairs[i].abs {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		t := float64(j - i)
		if t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}

	var wPlus, wMinus float64
	for i, p := range pairs {
		if p.sign > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w := math.Min(wPlus, wMinus)
	nf := float64(n)
	mean := nf * (nf + 1) / 4
	variance := nf*(nf+1)*(2*nf+1)/24 - tieTerm/48
	if variance <= 0 {
		return WilcoxonResult{W: w, N: n}
	}
	z := (w - mean) / math.Sqrt(variance)
	p := 2 * normalCDF(-math.Abs(z))
	if p > 1 {
		p = 1
	}
	return WilcoxonResult{W: w, Z: z, P: p, N: n, OK: true}
}

// normalCDF is Φ(x) for the standard normal distribution.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// PercentChange returns the relative change from base to new in percent.
func PercentChange(base, val float64) float64 {
	if base == 0 {
		if val == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (val - base) / base * 100
}
