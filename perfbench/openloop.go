package main

import "time"

// Schedule is an open-loop send schedule: request i is due at
// Start + i·Interval, whether or not earlier requests have completed.
type Schedule struct {
	Start    time.Time
	Interval time.Duration
}

// Due returns when request i should be sent.
func (s Schedule) Due(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Interval)
}

// OpenLoopSample is the accounting of one open-loop request.
type OpenLoopSample struct {
	// LatencyMS is measured from when the request was due, so a stall
	// charges its wait to every request queued behind it.
	LatencyMS float64
	// LateMS is how late the generator sent the request versus its
	// schedule.
	LateMS float64
}

// Account computes the open-loop sample of a request that was due at
// due, sent at sent and completed at done.
func Account(due, sent, done time.Time) OpenLoopSample {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return OpenLoopSample{
		LatencyMS: ms(done.Sub(due)),
		LateMS:    ms(late),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
