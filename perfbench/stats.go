package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a median at least 20.
const minTail = 10

// Percentile returns the q-quantile (0 < q < 1) of xs by nearest rank
// and whether the sample supports it, i.e. whether at least minTail
// samples lie beyond the chosen rank. xs is sorted in place.
func Percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank], n-(rank+1) >= minTail
}

// Metric is one reported number with its unit and sample count.
type Metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// Report collects a run's metrics in report order. A percentile the
// sample does not support is a failed check, not a reported number.
type Report struct {
	Metrics []Metric
	Errors  []string
}

// Add records a metric computed from n samples.
func (r *Report) Add(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Samples: n})
}

// AddPercentile records the q-quantile of xs, or an error when the
// sample is too small to support it.
func (r *Report) AddPercentile(name string, xs []float64, q float64, unit string) {
	v, ok := Percentile(xs, q)
	if !ok {
		r.Errorf("%s: %d samples cannot support the %g quantile (need %d beyond it)", name, len(xs), q, minTail)
		return
	}
	r.Add(name, v, unit, len(xs))
}

// Errorf records a failed check.
func (r *Report) Errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Get returns a recorded metric by name.
func (r *Report) Get(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
