package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"modelardb/internal/tsgen"
)

// Workload is one traffic mix the benchmark runs.
type Workload struct {
	Name string
	Run  func(ctx context.Context, e *Env) (*Result, error)
}

// workloads are described in NOTES.md.
var workloads = []Workload{
	{"ingest-eh", runIngestEH},
	{"agg-ep", runAggEP},
	{"online-eh", runOnlineEH},
}

// Bounds of the workloads' data, as percentages.
const (
	ingestBoundPct = 5
	aggBoundPct    = 5
	onlineBoundPct = 0
)

// appendBody sends one body and logs it as an op once acknowledged.
func appendBody(ctx context.Context, c *Conn, b Body, index int, res *Result) (Timing, error) {
	res.Attempted++
	n, t, err := c.Append(ctx, b.JSON, false)
	if err == nil && n != int64(b.N) {
		err = fmt.Errorf("acknowledged %d of %d points", n, b.N)
	}
	if err != nil {
		res.fail("append: %v", err)
		return t, err
	}
	res.Ops = append(res.Ops, Op{Body: index, SvcMS: t.MS(), at: t.Done})
	return t, nil
}

// flush asks the daemon to finalize its buffers and logs the request.
func flush(ctx context.Context, c *Conn, res *Result) (Timing, error) {
	res.Attempted++
	_, t, err := c.Append(ctx, []byte("[]"), true)
	if err != nil {
		res.fail("flush: %v", err)
		return t, err
	}
	res.Ops = append(res.Ops, Op{Body: -1, Flush: true, SvcMS: t.MS(), at: t.Done})
	return t, nil
}

// encodeNext encodes up to n further bodies of a stream.
func encodeNext(s *blockStream, n int) []Body {
	var out []Body
	for len(out) < n {
		pts, ok := s.next()
		if !ok {
			break
		}
		out = append(out, encodeBody(pts))
	}
	return out
}

// regen re-encodes the first *n bodies of a data set for the replay,
// one at a time.
func regen(mk func() *blockStream, n *int) func() (func() (Body, bool), func()) {
	return func() (func() (Body, bool), func()) {
		s, i := mk(), 0
		return func() (Body, bool) {
			pts, ok := s.next()
			if !ok || i == *n {
				return Body{}, false
			}
			i++
			return encodeBody(pts), true
		}, s.stop
	}
}

// generic picks the end-to-end metrics BENCHMARK.json names out of a
// report. Every workload has them: set-up time, peak RSS and stored
// bytes per point under their own names, and the whole-run rate,
// median and p99 of its measured operation (appends for ingest-eh,
// queries otherwise), named by rate, p50 and p99, as ops_per_s,
// op_p50_ms and op_p99_ms.
func generic(r *Report, rate, p50, p99 string) map[string]Metric {
	from := map[string]string{
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb", "stored_bytes_per_pt": "stored_bytes_per_pt",
		"ops_per_s": rate, "op_p50_ms": p50, "op_p99_ms": p99,
	}
	out := map[string]Metric{}
	for name, src := range from {
		if m, ok := r.Get(src); ok {
			m.Name = name
			if name == "ops_per_s" {
				m.Unit = "1/s"
			}
			out[name] = m
		}
	}
	return out
}

// aheadBodies is how many encoded bodies the ingest encoder keeps
// ready, about 3 MB of JSON: enough that a stretch of slow encoding
// (the encoder shares two cores with the daemon) does not leave the
// sender waiting.
const aheadBodies = 64

// encodeAhead encodes a data set's bodies in order on a goroutine, at
// most aheadBodies ahead of the sender, so the daemon is never left
// idle while the client encodes. stop ends the goroutine and waits for
// it.
func encodeAhead(ds *tsgen.Dataset) (bodies <-chan Body, stop func()) {
	out := make(chan Body, aheadBodies)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		s := newBlockStream(ds)
		defer s.stop()
		for pts, ok := s.next(); ok; pts, ok = s.next() {
			select {
			case out <- encodeBody(pts):
			case <-done:
				return
			}
		}
	}()
	return out, func() { close(done); wg.Wait() }
}

// runIngestEH streams EH-like data closed loop for the run's duration
// and then flushes. All figures are over wall time: a goroutine
// encodes the next bodies while the current one is served.
func runIngestEH(ctx context.Context, e *Env) (*Result, error) {
	ds := ehDataset(e.Seed)
	clauses, err := ehClauses(ds)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: configText(ds, ingestBoundPct, clauses)}
	const eps = ingestBoundPct / 100.0
	d, setup, err := e.setupDaemon(res.Config, launchRuns, nil)
	if err != nil {
		return nil, err
	}
	res.Report.Add("setup_s", setup, "s", launchRuns)
	before, err := d.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	conn := newConn(d.APIURL)
	defer conn.Close()
	bodies, stopEncoder := encodeAhead(ds)
	defer stopEncoder()
	log := newSeriesLog(len(ds.Series), ds.StartTime, ds.SI, false)
	// The first bodies are encoded before the clock starts.
	for len(bodies) < cap(bodies) {
		time.Sleep(time.Millisecond)
	}

	var acked int64
	var lat []float64
	sent, lastTick := 0, 0
	start := time.Now()
	for time.Since(start) < e.Run {
		b, ok := <-bodies
		if !ok {
			return nil, fmt.Errorf("ingest-eh: the data set ran out before %v", e.Run)
		}
		t, err := appendBody(ctx, conn, b, sent, res)
		if err != nil {
			return res, nil
		}
		lat = append(lat, t.MS())
		acked += int64(len(b.Points))
		log.add(b.Points)
		lastTick = int((b.Points[len(b.Points)-1].TS - ds.StartTime) / ds.SI)
		sent++
	}
	loop := time.Since(start).Seconds()
	ft, err := flush(ctx, conn, res)
	if err != nil {
		return res, nil
	}
	res.Bodies = regen(func() *blockStream { return newBlockStream(ds) }, &sent)

	res.Report.Add("ingest_pts_per_s", float64(acked)/ft.Done.Sub(start).Seconds(), "pts/s", len(lat))
	res.Report.Add("appends_per_s", float64(len(lat))/loop, "1/s", len(lat))
	res.Report.AddPercentile("append_p50_ms", lat, 0.5, "ms")
	res.Report.AddPercentile("append_p99_ms", lat, 0.99, "ms")
	res.Report.Add("flush_ms", ft.MS(), "ms", 1)

	// Untimed verification of everything acknowledged: every series'
	// S-AGG, both L-AGG views and row windows, against the raw points.
	rng := rand.New(rand.NewSource(e.Seed))
	qs := []*QuerySpec{laggSV(log.all(), eps), laggDPV(log.all(), eps)}
	for tid := 1; tid <= len(ds.Series); tid++ {
		qs = append(qs, sagg(tid, sumCount("S-AGG", log.total[tid-1], eps)))
	}
	qs = append(qs, rowWindows(rng, log, len(ds.Series), lastTick, eps)...)
	res.verify(ctx, conn, qs)
	if err := finish(ctx, d, before, acked, res); err != nil {
		return nil, err
	}
	res.Generic = generic(&res.Report, "appends_per_s", "append_p50_ms", "append_p99_ms")
	return res, nil
}

// rowWindows draws eight 200-tick row windows of random series, each
// checked point by point against the raw values under bound eps.
func rowWindows(rng *rand.Rand, log *seriesLog, series, lastTick int, eps float64) []*QuerySpec {
	var qs []*QuerySpec
	for i := 0; i < 8; i++ {
		tid, from := 1+rng.Intn(series), rng.Intn(max(lastTick-200, 1))
		raw := log.window(tid, from, from+199)
		qs = append(qs, rangeQuery(tid, log.tsOf(from), log.tsOf(from+199), func(rows []Point) error {
			return CheckRows("rows", rows, raw, eps, true)
		}))
	}
	return qs
}

// aggMix is the agg-ep query mix, in equal shares; S-AGG picks a
// series at random, the drill-down groups every Production series.
var aggMix = []string{classLAggSV, classLAggDPV, classSAgg, classMAgg, classMAggTid}

// runAggEP preloads EP-like data during set-up and runs a seeded
// closed-loop query mix for the run's duration.
func runAggEP(ctx context.Context, e *Env) (*Result, error) {
	ds := epDataset(e.Seed)
	res := &Result{Config: configText(ds, aggBoundPct, epClauses)}
	const eps = aggBoundPct / 100.0
	stream := newBlockStream(ds)
	bodies := encodeNext(stream, 1<<30)
	stream.stop()
	res.Bodies = sliceBodies(bodies)

	// References from the raw points.
	log := newSeriesLog(len(ds.Series), ds.StartTime, ds.SI, false)
	cube := newCubeRefs("Production")
	var points int64
	for _, b := range bodies {
		log.add(b.Points)
		points += int64(len(b.Points))
		for _, p := range b.Points {
			if ds.Series[p.Tid-1].Members["Measure"][0] == cube.category {
				cube.add(int(p.Tid), p.TS, p.Value)
			}
		}
	}
	var preload *Result
	d, setup, err := e.setupDaemon(res.Config, preloadRuns, func(d *Daemon) error {
		// Each set-up preloads a fresh daemon; the last one's requests
		// are the ones the traced run replays.
		preload = &Result{}
		c := newConn(d.APIURL)
		defer c.Close()
		for i, b := range bodies {
			if _, err := appendBody(ctx, c, b, i, preload); err != nil {
				return err
			}
		}
		_, err := flush(ctx, c, preload)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, op := range preload.Ops {
		op.Side = true
		res.Ops = append(res.Ops, op)
	}
	res.Attempted = preload.Attempted
	res.Report.Add("setup_s", setup, "s", preloadRuns)
	before, err := d.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	// The query sequence is drawn before timing starts.
	shared := map[string]*QuerySpec{
		classLAggSV:  laggSV(log.all(), eps),
		classLAggDPV: laggDPV(log.all(), eps),
		classMAgg:    cube.magg(eps, false),
		classMAggTid: cube.magg(eps, true),
	}
	saggs := make([]*QuerySpec, len(ds.Series))
	for tid := range saggs {
		saggs[tid] = sagg(tid+1, sumCount("S-AGG", log.total[tid], eps))
	}
	// Every block of five queries holds each class once, in a seeded
	// order, so the class shares — and with them the mix's median —
	// do not depend on the seed.
	rng := rand.New(rand.NewSource(e.Seed))
	const seqLen = 1 << 16
	seq := make([]*QuerySpec, 0, seqLen+len(aggMix))
	for len(seq) < seqLen {
		for _, i := range rng.Perm(len(aggMix)) {
			if class := aggMix[i]; class == classSAgg {
				seq = append(seq, saggs[rng.Intn(len(saggs))])
			} else {
				seq = append(seq, shared[class])
			}
		}
	}

	conn := newConn(d.APIURL)
	defer conn.Close()
	var ps []pending
	start := time.Now()
	for i := 0; time.Since(start) < e.Run; i++ {
		q := seq[i%len(seq)]
		res.Attempted++
		p, err := runQuery(ctx, conn, q)
		if err != nil {
			res.fail("%s: %v", q.Class, err)
			break
		}
		ps = append(ps, p)
		res.Ops = append(res.Ops, Op{Body: -1, Query: q, SvcMS: p.t.MS(), at: p.t.Sent})
	}
	elapsed := time.Since(start).Seconds()
	res.checkAll(ps)
	// Untimed: row windows, each value within the bound.
	res.verify(ctx, conn, rowWindows(rng, log, len(ds.Series), epTicks-1, eps))

	all, byClass := latencies(ps)
	res.Report.Add("queries_per_s", float64(len(ps))/elapsed, "q/s", len(ps))
	res.Report.AddPercentile("query_p50_ms", all, 0.5, "ms")
	res.Report.AddPercentile("query_p99_ms", all, 0.99, "ms")
	res.Report.AddPercentile("lagg_sv_p50_ms", byClass[classLAggSV], 0.5, "ms")
	res.Report.AddPercentile("lagg_dpv_p50_ms", byClass[classLAggDPV], 0.5, "ms")
	res.Report.AddPercentile("sagg_p50_ms", byClass[classSAgg], 0.5, "ms")
	res.Report.AddPercentile("magg_p50_ms", append(byClass[classMAgg], byClass[classMAggTid]...), 0.5, "ms")
	if err := finish(ctx, d, before, points, res); err != nil {
		return nil, err
	}
	res.Generic = generic(&res.Report, "queries_per_s", "query_p50_ms", "query_p99_ms")
	return res, nil
}
