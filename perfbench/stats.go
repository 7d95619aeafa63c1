package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (q in [0,1]) of xs by linear
// interpolation between order statistics, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// trimmedGeoMean is the geometric mean of xs after dropping the lowest
// and the highest fifth, or NaN for no samples.
func trimmedGeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 5
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

// ratio is a/b, or 0 when b is zero (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// series collects duration samples in one unit.
type series struct {
	unit func(time.Duration) float64
	xs   []float64
}

func newSeries(unit func(time.Duration) float64) *series { return &series{unit: unit} }

func (s *series) add(d time.Duration) { s.xs = append(s.xs, s.unit(d)) }
func (s *series) q(q float64) float64 { return quantile(s.xs, q) }
func (s *series) n() int              { return len(s.xs) }
