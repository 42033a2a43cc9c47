package main

import (
	"fmt"
	"math"
)

// float32Slack covers the rounding of values stored as float32 (one
// unit in the last place relative to each value, with margin) plus
// float64 summation-order differences.
const float32Slack = 4.0 / (1 << 23)

// Ref is the reference aggregate of a set of raw points.
type Ref struct {
	Count  int64
	Sum    float64
	AbsSum float64
}

// Add folds one raw value into the reference.
func (r *Ref) Add(v float32) {
	r.Count++
	r.Sum += float64(v)
	r.AbsSum += math.Abs(float64(v))
}

// CheckAgg verifies a SUM/COUNT answer against its reference under a
// relative error bound eps (0.05 for 5%): COUNT is exact and SUM lies
// within eps·Σ|v| of the reference, plus float32 slack.
func CheckAgg(what string, sum float64, count int64, ref Ref, eps float64) error {
	if count != ref.Count {
		return fmt.Errorf("%s: COUNT %d, reference %d", what, count, ref.Count)
	}
	return CheckSum(what, sum, ref, eps)
}

// CheckSum verifies a SUM answer alone against its reference.
func CheckSum(what string, sum float64, ref Ref, eps float64) error {
	tol := (eps+float32Slack)*ref.AbsSum + 1e-9
	if d := math.Abs(sum - ref.Sum); !(d <= tol) {
		return fmt.Errorf("%s: SUM %g differs from reference %g by %g (> %g)", what, sum, ref.Sum, d, tol)
	}
	return nil
}

// Point is one (timestamp, value) row of a range query or its raw
// reference.
type Point struct {
	TS    int64
	Value float32
}

// within reports whether got reconstructs want under bound eps.
func within(got, want float32, eps float64) bool {
	if eps == 0 {
		return got == want
	}
	tol := (eps+float32Slack)*math.Abs(float64(want)) + 1e-9
	return math.Abs(float64(got)-float64(want)) <= tol
}

// CheckRows verifies range-query rows against the raw points of the
// window. With complete set, every raw point must come back, in order,
// within eps (exactly when eps is 0). Without it — a window younger
// than what ingestion guarantees to be queryable — the rows must be a
// subset of the raw points, in order, each within eps.
func CheckRows(what string, got, raw []Point, eps float64, complete bool) error {
	if complete && len(got) != len(raw) {
		return fmt.Errorf("%s: %d rows, reference %d", what, len(got), len(raw))
	}
	j := 0
	for i, g := range got {
		for j < len(raw) && raw[j].TS < g.TS {
			if complete {
				return fmt.Errorf("%s: row %d: missing raw point at ts %d", what, i, raw[j].TS)
			}
			j++
		}
		if j == len(raw) || raw[j].TS != g.TS {
			return fmt.Errorf("%s: row %d: ts %d is not a raw point of the window", what, i, g.TS)
		}
		if !within(g.Value, raw[j].Value, eps) {
			return fmt.Errorf("%s: row %d at ts %d: value %v, raw %v (bound %g)", what, i, g.TS, g.Value, raw[j].Value, eps)
		}
		j++
	}
	return nil
}

// SumRange bounds the SUM a live query may return when it sees every
// raw point up to index lo and possibly any of those in (lo, hi]: the
// visible subset is unknown, so its sum lies between the prefix up to
// lo plus all negative and, respectively, all positive values of the
// uncertain span.
type SumRange struct {
	neg []float64 // neg[i] = Σ min(0, v) over v[0:i]
	pos []float64 // pos[i] = Σ max(0, v) over v[0:i]
}

// Append adds the next raw value of the series.
func (s *SumRange) Append(v float32) {
	if len(s.pos) == 0 {
		s.neg, s.pos = []float64{0}, []float64{0}
	}
	n := len(s.pos) - 1
	f := float64(v)
	s.neg = append(s.neg, s.neg[n]+math.Min(0, f))
	s.pos = append(s.pos, s.pos[n]+math.Max(0, f))
}

// Len returns the number of values appended.
func (s *SumRange) Len() int { return max(len(s.pos)-1, 0) }

// Check verifies a lossless live SUM/COUNT answer: COUNT lies in
// [lo, hi] and SUM within the bounds of a subset containing the first
// lo values and drawn from the first hi.
func (s *SumRange) Check(what string, sum float64, count int64, lo, hi int) error {
	hi = min(hi, s.Len())
	lo = min(max(lo, 0), hi)
	if count < int64(lo) || count > int64(hi) {
		return fmt.Errorf("%s: COUNT %d outside the acknowledged range [%d, %d]", what, count, lo, hi)
	}
	if s.Len() == 0 {
		return nil
	}
	base := s.pos[lo] + s.neg[lo]
	min := base + s.neg[hi] - s.neg[lo]
	max := base + s.pos[hi] - s.pos[lo]
	tol := float32Slack*(s.pos[hi]-s.neg[hi]) + 1e-9
	if sum < min-tol || sum > max+tol {
		return fmt.Errorf("%s: SUM %g outside [%g, %g]", what, sum, min, max)
	}
	return nil
}
