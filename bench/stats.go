package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// tailSamples is how many samples must lie beyond a percentile before the
// harness reports it: with fewer, the "percentile" is one or two outliers.
const tailSamples = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between order statistics; NaN for an empty sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// supportedPercentile returns the value of percentile want (e.g. 90) when at
// least tailSamples samples lie beyond it, and otherwise of the highest whole
// percentile (never below the median) that the sample does support. used says
// which percentile the value is.
func supportedPercentile(xs []float64, want int) (value float64, used int) {
	asc := sorted(xs)
	n := len(asc)
	used = want
	if beyond := float64(n) * float64(100-want) / 100; beyond < tailSamples {
		used = int(math.Floor(100 * (1 - float64(tailSamples)/float64(n))))
		if n == 0 || used < 50 {
			used = 50
		}
	}
	return quantile(asc, float64(used)/100), used
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt runs fn repeatedly for at least minTime and at least minIters
// iterations and returns each iteration's duration. The layer ladder uses it
// so that every rung costs a bounded slice of the run.
func timeIt(minTime time.Duration, minIters int, fn func()) []float64 {
	var secs []float64
	begin := time.Now()
	for len(secs) < minIters || time.Since(begin) < minTime {
		t := time.Now()
		fn()
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs
}

// fitLine returns the least-squares intercept a and slope b of y = a + b·x.
func fitLine(xs, ys []float64) (a, b float64) {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	if sxx == 0 {
		return my, 0
	}
	b = sxy / sxx
	return my - b*mx, b
}
