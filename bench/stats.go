package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0–100) of xs by linear
// interpolation between the closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads read the same as the acceptance check
// that uses it. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j·(n+1)/4 on the 1-based ranks, clamped to the ends.
		m := n + 1
		k := j * m / 4
		frac := float64(j*m%4) / 4
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), median(s), at(3)
}

// mannWhitney returns the U statistic of x against y and its two-sided
// p-value. Without ties and with at most 400 rank pairs the p-value is
// exact (the permutation distribution of U); otherwise it is the normal
// approximation with tie and continuity corrections.
func mannWhitney(x, y []float64) (u, p float64) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v    float64
		from int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, 0})
	}
	for _, v := range y {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n := len(all)
	var r1, tieSum float64
	ties := false
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // mean of the 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].from == 0 {
				r1 += mid
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieSum += t*t*t - t
		}
		i = j
	}
	u = r1 - float64(n1*(n1+1))/2
	if !ties && n1*n2 <= 400 {
		return u, exactU(n1, n2, u)
	}
	mu := float64(n1*n2) / 2
	sigma := math.Sqrt(float64(n1*n2) / 12 * (float64(n+1) - tieSum/float64(n*(n-1))))
	if sigma == 0 {
		return u, 1
	}
	z := (math.Abs(u-mu) - 0.5) / sigma
	if z < 0 {
		z = 0
	}
	return u, math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactU is the two-sided p-value of U = u for samples of n1 and n2
// without ties: twice the smaller tail of the permutation distribution.
func exactU(n1, n2 int, u float64) float64 {
	// counts[i][j][k]: orderings of i x's and j y's whose U is k.
	maxU := n1 * n2
	counts := make([][][]float64, n1+1)
	for i := range counts {
		counts[i] = make([][]float64, n2+1)
		for j := range counts[i] {
			counts[i][j] = make([]float64, maxU+1)
			if i == 0 || j == 0 {
				counts[i][j][0] = 1
				continue
			}
			for k := 0; k <= i*j; k++ {
				// The largest value is an x (beating all j y's) or a y.
				if k >= j {
					counts[i][j][k] += counts[i-1][j][k-j]
				}
				counts[i][j][k] += counts[i][j-1][k]
			}
		}
	}
	dist := counts[n1][n2]
	var total, lower, upper float64
	for k, c := range dist {
		total += c
		if float64(k) <= u {
			lower += c
		}
		if float64(k) >= u {
			upper += c
		}
	}
	return math.Min(1, 2*math.Min(lower, upper)/total)
}
