package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{5000, 0.99, 4950, true},
		{0, 0.5, 0, false},
	} {
		got, ok := Percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (tc.n > 0 && got != tc.want) {
			t.Errorf("Percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestReportRejectsUnsupportedP99(t *testing.T) {
	var r Report
	r.AddPercentile("x_p99_ms", seq(500), 0.99, "ms")
	if len(r.Errors) != 1 || len(r.Metrics) != 0 {
		t.Fatalf("500 samples must not yield a p99: metrics=%v errors=%v", r.Metrics, r.Errors)
	}
	r.AddPercentile("x_p50_ms", seq(500), 0.5, "ms")
	if m, ok := r.Get("x_p50_ms"); !ok || m.Samples != 500 || m.Value != 250 {
		t.Fatalf("median of 1..500 = %+v, want 250 with 500 samples", m)
	}
}
