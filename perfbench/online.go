package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// onlineRate is online-eh's open-loop append rate in points per
// second, about half of what one writer sustains alone on this data.
const onlineRate = 180_000

// horizonTicks is how far behind the last acknowledged tick lossless
// rows must be complete: a point reaches the store once its segment is
// emitted, at most one model length (50 ticks) after it arrives, and
// per-group tick assembly adds one more. Four lengths leave margin.
const horizonTicks = 200

// rangeWidths are the reader's window widths in ticks.
var rangeWidths = []int{10, 30, 100, 300, 1000}

// saggPerBlock is how many S-AGG join each block of range queries.
const saggPerBlock = 2

// maxLagTicks bounds how far behind the writer a reader window ends.
const maxLagTicks = 2000

// liveSum checks a lossless S-AGG answered while appends ran: it must
// count every point of the series through tick loTick and none after
// hiTick. *log is filled once the run is over.
func liveSum(log **seriesLog, tid, loTick, hiTick int) func(*Answer) error {
	return func(a *Answer) error {
		l := *log
		lo, hi := l.countThrough(tid, loTick), l.countThrough(tid, hiTick)
		if len(a.Rows) != 1 {
			return fmt.Errorf("live S-AGG: %d rows, want 1", len(a.Rows))
		}
		sum, err := a.Float(0, 0)
		if err != nil {
			return err
		}
		count, err := a.Int(0, 1)
		if err != nil {
			return err
		}
		return l.sums[tid-1].Check("live S-AGG", sum, count, lo, hi)
	}
}

// runOnlineEH appends lossless EH-like data open loop at onlineRate
// on one connection while a second connection reads recent rows and
// S-AGG closed loop.
func runOnlineEH(ctx context.Context, e *Env) (*Result, error) {
	ds := ehDataset(e.Seed)
	clauses, err := ehClauses(ds)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: configText(ds, onlineBoundPct, clauses)}
	interval := time.Second * bodyPoints / onlineRate
	n := int(e.Run / interval)
	stream := newBlockStream(ds)
	bodies := encodeNext(stream, n)
	stream.stop()
	res.Bodies = regen(func() *blockStream { return newBlockStream(ds) }, &n)
	// tickOf[i] is the last tick body i carries; the tick before it is
	// complete once body i is acknowledged. The raw values are logged
	// only after the run, from the regenerated data set, so they and
	// the encoded bodies are never held at once.
	tickOf := make([]int, len(bodies))
	for i := range bodies {
		pts := bodies[i].Points
		tickOf[i] = int((pts[len(pts)-1].TS - ds.StartTime) / ds.SI)
		bodies[i].Points = nil
	}
	var log *seriesLog
	tsOf := func(tick int) int64 { return ds.StartTime + int64(tick)*ds.SI }
	// The reader's parameters are drawn before timing starts. Every
	// block holds one range query of each width and two S-AGG, in a
	// seeded order, so the mix's shares do not depend on the seed. Seven
	// equal shares put the mix's median inside the 300-tick windows'
	// latencies, not on the edge between two classes.
	rng := rand.New(rand.NewSource(e.Seed))
	type draw struct {
		tid, width, lag int
		isRange         bool
	}
	const drawsLen = 1 << 16
	draws := make([]draw, 0, drawsLen+len(rangeWidths)+saggPerBlock)
	for len(draws) < drawsLen {
		for _, i := range rng.Perm(len(rangeWidths) + saggPerBlock) {
			dr := draw{tid: 1 + rng.Intn(len(ds.Series)), lag: rng.Intn(maxLagTicks)}
			if i < len(rangeWidths) {
				dr.width, dr.isRange = rangeWidths[i], true
			}
			draws = append(draws, dr)
		}
	}

	d, setup, err := e.setupDaemon(res.Config, launchRuns, nil)
	if err != nil {
		return nil, err
	}
	res.Report.Add("setup_s", setup, "s", launchRuns)
	before, err := d.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	wconn, rconn := newConn(d.APIURL), newConn(d.APIURL)
	defer wconn.Close()
	defer rconn.Close()

	var acked, sent atomic.Int64 // bodies acknowledged, bodies sent
	writer := &Result{}
	var samples []OpenLoopSample
	sched := Schedule{Start: time.Now(), Interval: interval}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, b := range bodies {
			due := sched.Due(i)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent.Store(int64(i + 1))
			t, err := appendBody(ctx, wconn, b, i, writer)
			if err != nil {
				return
			}
			acked.Store(int64(i + 1))
			bodies[i] = Body{} // sent; the replay regenerates it
			samples = append(samples, Account(due, t.Sent, t.Done))
		}
	}()

	var ps []pending
	for acked.Load() < 8 && time.Since(sched.Start) < e.Run {
		time.Sleep(time.Millisecond)
	}
	if acked.Load() < 8 {
		wg.Wait()
		res.Attempted += writer.Attempted
		res.Failed += writer.Failed + 1
		res.Report.Errors = append(res.Report.Errors, writer.Report.Errors...)
		res.Report.Errorf("online-eh: the writer acknowledged %d bodies before the run ended", acked.Load())
		return res, nil
	}
	start := time.Now()
	for i := 0; time.Since(sched.Start) < e.Run; i++ {
		dr := draws[i%len(draws)]
		a := int(acked.Load())
		complete, newest := tickOf[a-1]-1, tickOf[a-1]
		var q *QuerySpec
		if dr.isRange {
			to := max(newest-dr.lag, 0)
			from := max(to-dr.width+1, 0)
			tid, full := dr.tid, to <= complete-horizonTicks
			q = rangeQuery(tid, tsOf(from), tsOf(to), func(rows []Point) error {
				return CheckRows("live rows", rows, log.window(tid, from, to), 0, full)
			})
		} else {
			q = sagg(dr.tid, nil)
		}
		res.Attempted++
		p, err := runQuery(ctx, rconn, q)
		if err != nil {
			res.fail("%s: %v", q.Class, err)
			break
		}
		if !dr.isRange {
			// Everything older than the horizon when the query was sent
			// must be counted; nothing sent after it returned can be (a
			// body's points are visible before its acknowledgement).
			q.Check = liveSum(&log, dr.tid, complete-horizonTicks, tickOf[sent.Load()-1])
		}
		ps = append(ps, p)
		res.Ops = append(res.Ops, Op{Body: -1, Query: q, SvcMS: p.t.MS(), at: p.t.Sent})
	}
	elapsed := time.Since(start).Seconds()
	wg.Wait()
	res.Attempted += writer.Attempted
	res.Failed += writer.Failed
	res.Report.Errors = append(res.Report.Errors, writer.Report.Errors...)
	res.Ops = append(res.Ops, writer.Ops...)
	ft, err := flush(ctx, wconn, res)
	if err != nil {
		return res, nil
	}
	log = newSeriesLog(len(ds.Series), ds.StartTime, ds.SI, true)
	next, stop := res.Bodies()
	for b, ok := next(); ok; b, ok = next() {
		log.add(b.Points)
	}
	stop()
	res.checkAll(ps)

	var lat, late []float64
	for _, s := range samples {
		lat = append(lat, s.LatencyMS)
		late = append(late, s.LateMS)
	}
	points := int64(len(samples)) * bodyPoints
	all, byClass := latencies(ps)
	res.Report.Add("ingest_pts_per_s", float64(points)/ft.Done.Sub(sched.Start).Seconds(), "pts/s", len(samples))
	res.Report.AddPercentile("append_p50_ms", lat, 0.5, "ms")
	res.Report.AddPercentile("append_p99_ms", lat, 0.99, "ms")
	res.Report.AddPercentile("gen_late_p99_ms", late, 0.99, "ms")
	res.Report.Add("queries_per_s", float64(len(ps))/elapsed, "q/s", len(ps))
	res.Report.AddPercentile("query_p50_ms", all, 0.5, "ms")
	res.Report.AddPercentile("query_p99_ms", all, 0.99, "ms")
	res.Report.AddPercentile("range_p50_ms", byClass[classRange], 0.5, "ms")
	res.Report.AddPercentile("range_p99_ms", byClass[classRange], 0.99, "ms")
	res.Report.AddPercentile("sagg_p50_ms", byClass[classSAgg], 0.5, "ms")

	// Untimed: once flushed, every acknowledged point is exact.
	qs := []*QuerySpec{laggSV(log.all(), 0), laggDPV(log.all(), 0)}
	for tid := 1; tid <= len(ds.Series); tid++ {
		qs = append(qs, sagg(tid, sumCount("S-AGG", log.total[tid-1], 0)))
	}
	res.verify(ctx, rconn, qs)
	if err := finish(ctx, d, before, points, res); err != nil {
		return nil, err
	}
	res.sortOps()
	res.Generic = generic(&res.Report, "queries_per_s", "query_p50_ms", "query_p99_ms")
	return res, nil
}
