package main

import "testing"

func refOf(vs ...float32) Ref {
	var r Ref
	for _, v := range vs {
		r.Add(v)
	}
	return r
}

func TestCheckAggAcceptsWithinBound(t *testing.T) {
	ref := refOf(100, 200, 300)
	// Every value 5% high is the worst case a 5% bound allows.
	if err := CheckAgg("sum", 630, 3, ref, 0.05); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAggRejectsWrongSum(t *testing.T) {
	ref := refOf(100, 200, 300)
	if err := CheckAgg("sum", 631, 3, ref, 0.05); err == nil {
		t.Fatal("a SUM beyond eps·Σ|v| was accepted")
	}
	if err := CheckAgg("lossless", 600.5, 3, ref, 0); err == nil {
		t.Fatal("a lossless SUM off by 0.5 was accepted")
	}
	if err := CheckAgg("count", 600, 2, ref, 0.05); err == nil {
		t.Fatal("a wrong COUNT was accepted")
	}
}

func TestCheckRowsRejectsDroppedRow(t *testing.T) {
	raw := []Point{{100, 1}, {200, 2}, {300, 3}}
	if err := CheckRows("exact", raw, raw, 0, true); err != nil {
		t.Fatal(err)
	}
	dropped := []Point{{100, 1}, {300, 3}}
	if err := CheckRows("exact", dropped, raw, 0, true); err == nil {
		t.Fatal("a dropped row was accepted in a complete window")
	}
	// A young window may miss rows but never invent or alter one.
	if err := CheckRows("young", dropped, raw, 0, false); err != nil {
		t.Fatalf("subset of a young window rejected: %v", err)
	}
	if err := CheckRows("young", []Point{{150, 1}}, raw, 0, false); err == nil {
		t.Fatal("a row at a non-raw timestamp was accepted")
	}
	if err := CheckRows("young", []Point{{200, 2.5}}, raw, 0, false); err == nil {
		t.Fatal("an altered lossless value was accepted")
	}
	if err := CheckRows("lossy", []Point{{100, 1.04}, {200, 2.1}, {300, 2.9}}, raw, 0.05, true); err != nil {
		t.Fatalf("values within 5%% rejected: %v", err)
	}
	if err := CheckRows("lossy", []Point{{100, 1.06}, {200, 2}, {300, 3}}, raw, 0.05, true); err == nil {
		t.Fatal("a value 6% off was accepted under a 5% bound")
	}
}

func TestSumRangeBoundsLiveAnswers(t *testing.T) {
	var s SumRange
	for _, v := range []float32{10, -4, 6, 8} {
		s.Append(v)
	}
	// The first two values must be visible; any of the last two may be.
	if err := s.Check("live", 6+8, 3, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Check("live", 6+6+8+1, 4, 2, 4); err == nil {
		t.Fatal("a SUM above every visible subset was accepted")
	}
	if err := s.Check("live", 10, 1, 2, 4); err == nil {
		t.Fatal("a COUNT below the guaranteed prefix was accepted")
	}
}
