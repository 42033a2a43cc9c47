package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Env is one benchmark run's settings and the daemons it owns.
type Env struct {
	Bin     string // modelardbd binary
	WorkDir string // parent of the daemons' fresh directories
	Seed    int64
	Run     time.Duration // how long the workload is measured

	mu      sync.Mutex
	daemons []*Daemon
}

// Launch starts a daemon that Cleanup will stop.
func (e *Env) Launch(cfg string) (*Daemon, error) {
	d, err := launch(e.Bin, e.WorkDir, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, nil
}

// Stop stops one daemon the run started and forgets it.
func (e *Env) Stop(d *Daemon) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.daemons {
		if x == d {
			e.daemons = append(e.daemons[:i], e.daemons[i+1:]...)
			d.Stop()
			return
		}
	}
}

// Cleanup stops every daemon the run started and removes its
// directories; it runs on every exit path.
func (e *Env) Cleanup() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.daemons {
		d.Stop()
	}
	e.daemons = nil
}

// Op is one request of the run, in the order the traced replay
// re-issues it: appends by acknowledgement time, queries by send time,
// so a replayed query sees exactly the appends acknowledged before it
// was sent.
type Op struct {
	Body  int // index into the run's body sequence; -1 for a flush or a query
	Flush bool
	Query *QuerySpec
	SvcMS float64 // untraced service time, send to response
	// Side marks a request outside the measured window (a set-up
	// preload or an untimed check): the replay traces it for the
	// per-unit layer costs but leaves it out of the shares.
	Side bool
	at   time.Time
}

// Result is what a workload run hands to reporting and the replay.
type Result struct {
	Report    Report
	Generic   map[string]Metric // the end-to-end metrics BENCHMARK.json names
	Attempted int
	Failed    int

	Config string // the daemon's configuration
	// Bodies yields the run's append bodies again, in order, for the
	// replay; stop releases the sequence.
	Bodies   func() (next func() (Body, bool), stop func())
	Ops      []Op
	Counters map[string]float64 // daemon counter deltas over the run
}

// fail counts a failed operation and records why.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Report.Errorf(format, args...)
}

// sortOps orders the op log for replay.
func (r *Result) sortOps() {
	sort.SliceStable(r.Ops, func(i, j int) bool { return r.Ops[i].at.Before(r.Ops[j].at) })
}

// How many times a run sets up, reporting the median: a bare launch
// takes milliseconds, so it is repeated often; a preload takes about a
// second.
const (
	launchRuns  = 15
	preloadRuns = 7
)

// setupDaemon sets up n times — launch to ready, plus prepare
// (preloading) when given — keeping the last daemon and reporting the
// median set-up time in seconds.
func (e *Env) setupDaemon(cfg string, n int, prepare func(*Daemon) error) (*Daemon, float64, error) {
	var times []float64
	var d *Daemon
	for i := 0; i < n; i++ {
		if d != nil {
			e.Stop(d)
		}
		start := time.Now()
		var err error
		d, err = e.Launch(cfg)
		if err != nil {
			return nil, 0, err
		}
		if prepare != nil {
			if err := prepare(d); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return d, times[len(times)/2], nil
}

// counterDelta returns after − before for each named daemon counter.
func counterDelta(before, after map[string]float64, names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range names {
		out[n] = after[n] - before[n]
	}
	return out
}

// Daemon counters read around every run.
const (
	ctrSegments  = "modelardb_query_segments_total"
	ctrQueries   = "modelardb_queries_total"
	ctrFsyncs    = "modelardb_wal_fsyncs_total"
	ctrSyncWaits = "modelardb_wal_sync_waits_total"
	ctrCacheHits = "modelardb_cache_hits_total"
	ctrCacheMiss = "modelardb_cache_misses_total"
	gaugeStorage = "modelardb_storage_bytes"
	ctrPoints    = "modelardb_ingested_points_total"
)

var runCounters = []string{ctrSegments, ctrQueries, ctrFsyncs, ctrSyncWaits, ctrCacheHits, ctrCacheMiss}

// finish reads the daemon's closing state into the result: counter
// deltas, stored bytes per point and peak RSS.
func finish(ctx context.Context, d *Daemon, before map[string]float64, points int64, res *Result) error {
	after, err := d.Metrics(ctx)
	if err != nil {
		return err
	}
	res.Counters = counterDelta(before, after, runCounters...)
	if points <= 0 {
		return fmt.Errorf("no points were stored")
	}
	res.Report.Add("stored_bytes_per_pt", after[gaugeStorage]/float64(points), "B/pt", int(points))
	rss, err := d.PeakRSSMB()
	if err != nil {
		return err
	}
	res.Report.Add("peak_rss_mb", rss, "MiB", 1)
	return nil
}

// pending is a response kept for checking after the timed window, so
// parsing and checking never run while the daemon is measured.
type pending struct {
	spec   *QuerySpec
	status int
	body   []byte
	t      Timing
}

// runQuery sends one query and keeps its raw response.
func runQuery(ctx context.Context, c *Conn, q *QuerySpec) (pending, error) {
	data, status, t, err := c.post(ctx, "/api/v1/query", "text/plain", []byte(q.SQL))
	return pending{spec: q, status: status, body: data, t: t}, err
}

// checkAll checks kept responses, counting each wrong answer.
func (r *Result) checkAll(ps []pending) {
	for _, p := range ps {
		a, err := parseAnswer(p.status, p.body)
		if err == nil {
			err = p.spec.Check(a)
		}
		if err != nil {
			r.fail("%s: %v", p.spec.Class, err)
		}
	}
}

// verify runs untimed checking queries and logs them for the replay.
func (r *Result) verify(ctx context.Context, c *Conn, qs []*QuerySpec) {
	var ps []pending
	for _, q := range qs {
		r.Attempted++
		p, err := runQuery(ctx, c, q)
		if err != nil {
			r.fail("%s: %v", q.Class, err)
			continue
		}
		ps = append(ps, p)
		r.Ops = append(r.Ops, Op{Body: -1, Query: q, SvcMS: p.t.MS(), Side: true, at: p.t.Sent})
	}
	r.checkAll(ps)
}

// latencies groups query latencies (ms) by class.
func latencies(ps []pending) (all []float64, byClass map[string][]float64) {
	byClass = map[string][]float64{}
	for _, p := range ps {
		all = append(all, p.t.MS())
		byClass[p.spec.Class] = append(byClass[p.spec.Class], p.t.MS())
	}
	return all, byClass
}

// sliceBodies yields bodies kept in memory.
func sliceBodies(bodies []Body) func() (func() (Body, bool), func()) {
	return func() (func() (Body, bool), func()) {
		i := 0
		return func() (Body, bool) {
			if i == len(bodies) {
				return Body{}, false
			}
			i++
			return bodies[i-1], true
		}, func() {}
	}
}
