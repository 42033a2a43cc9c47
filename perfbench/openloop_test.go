package main

import (
	"testing"
	"time"
)

// simulate runs a single-connection open loop over fixed service
// times on a virtual clock and returns each request's accounting.
func simulate(s Schedule, service []time.Duration) []OpenLoopSample {
	now := s.Start
	out := make([]OpenLoopSample, len(service))
	for i, svc := range service {
		due := s.Due(i)
		if now.Before(due) {
			now = due // the sender waits for the schedule
		}
		sent := now
		now = now.Add(svc)
		out[i] = Account(due, sent, now)
	}
	return out
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	s := Schedule{Start: time.Unix(0, 0), Interval: 10 * time.Millisecond}
	// Request 0 stalls for 35 ms; 1..3 take 1 ms each.
	got := simulate(s, []time.Duration{35 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond})
	want := []OpenLoopSample{
		{LatencyMS: 35, LateMS: 0},
		{LatencyMS: 26, LateMS: 25}, // due 10, sent 35
		{LatencyMS: 17, LateMS: 16}, // due 20, sent 36
		{LatencyMS: 8, LateMS: 7},   // due 30, sent 37
		{LatencyMS: 1, LateMS: 0},   // due 40: back on schedule
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpenLoopEarlySendIsNotNegativeLateness(t *testing.T) {
	due := time.Unix(10, 0)
	a := Account(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if a.LateMS != 0 || a.LatencyMS != 1 {
		t.Fatalf("%+v", a)
	}
}
