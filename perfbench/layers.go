package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"modelardb"
	"modelardb/internal/config"
	"modelardb/internal/core"
	"modelardb/internal/httpapi"
	"modelardb/internal/models"
	"modelardb/internal/obs"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
	"modelardb/internal/wal"
)

// maxReplayPerClass caps how many queries of each class the traced run
// replays, in log order, so the replay's length stays bounded however
// many queries the untraced run completed.
const maxReplayPerClass = 64

// defaultViewCache is the library's default segment cache size. The
// daemon's configuration has no directive for it, so modelardbd runs
// with the cache off; the replay measures what the default would hit.
const defaultViewCache = 1024

// programLayers are the packages whose self time the residual is
// measured against; spans named "bench.*" are the benchmark's own.
var programLayers = []string{"httpapi", "modelardb", "wal", "core", "models", "storage", "sqlparse", "query"}

// recorder is the Backend behind the replayed append handler: it keeps
// what the handler decoded, under a span nested in the handler's, so
// the handler's self time is JSON decoding alone.
type recorder struct {
	tr          *Tracer
	parent, req int
	got         []core.DataPoint
}

func (b *recorder) AppendBatch(_ context.Context, pts []modelardb.DataPoint) error {
	id := b.tr.Begin("bench.record", b.parent, b.req, false)
	b.got = append(b.got, pts...)
	b.tr.End(id)
	return nil
}

func (b *recorder) Flush() error {
	b.tr.End(b.tr.Begin("bench.record", b.parent, b.req, false))
	return nil
}

func (b *recorder) QueryRows(context.Context, string) (*modelardb.Rows, error) {
	return nil, errors.New("append-only backend")
}

func (b *recorder) TidOfSource(string) (modelardb.Tid, bool) { return 0, false }

// engineBackend serves the replayed query handler from the replay's
// own engine, over the store the replay fills.
type engineBackend struct{ eng *query.Engine }

func (b engineBackend) AppendBatch(context.Context, []modelardb.DataPoint) error {
	return errors.New("query-only backend")
}
func (b engineBackend) Flush() error { return errors.New("query-only backend") }
func (b engineBackend) QueryRows(ctx context.Context, sql string) (*modelardb.Rows, error) {
	return b.eng.QueryRowsSQL(ctx, sql)
}
func (b engineBackend) TidOfSource(string) (modelardb.Tid, bool) { return 0, false }

// replayer re-issues a run's requests in-process. Each append goes
// through the HTTP handler (into a recorder), through DB.AppendBatch on
// a database configured like the daemon, and standalone through the
// WAL, the group ingestors and the file store; each query goes through
// the HTTP handler, the Rows cursor, the parser, the executor and
// standalone through the store scan, segment decoding and model views.
type replayer struct {
	ctx context.Context
	tr  *Tracer
	rep *Report

	db      *modelardb.DB
	meta    *core.MetadataCache
	reg     *models.Registry
	wlog    *wal.WAL
	gis     map[core.Gid]*core.GroupIngestor
	gids    []core.Gid
	scaling []float32
	store   *storage.FileStore
	eng     *query.Engine
	rec     *recorder
	appendH http.Handler
	queryH  http.Handler

	req, coreSpan int
	emitted       []*core.Segment // emitted by the ingestors, not yet inserted
	unflushed     []*core.Segment // inserted, not yet encoded by a store flush

	points, segsEmitted, segsInserted, segsEncoded int64
	walBytes                                       int64
	queries, chunks, rowsOut                       int64
	segsRead, segsTotal, segsSV, pointsDPV         int64
	dpv                                            map[int]bool // request → DataPoint view
	side                                           map[int]bool // request → outside the measured window
	renderNS, cursorNS                             float64      // per-row costs of row queries
}

func (r *replayer) members(gid core.Gid) []core.Tid { return r.meta.TidsOf(gid) }

func newReplayer(ctx context.Context, res *Result, dir string) (_ *replayer, err error) {
	cfg, err := config.Parse(strings.NewReader(res.Config))
	if err != nil {
		return nil, err
	}
	cfg.Path, cfg.WALDir = filepath.Join(dir, "db"), filepath.Join(dir, "db-wal")
	r := &replayer{ctx: ctx, tr: NewTracer(), rep: &Report{}, reg: models.NewBuiltinRegistry(), gis: map[core.Gid]*core.GroupIngestor{}, dpv: map[int]bool{}, side: map[int]bool{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.db, err = modelardb.Open(cfg); err != nil {
		return nil, err
	}
	r.meta = r.db.Metadata()
	policy, err := wal.ParsePolicy(cfg.WALFsync)
	if err != nil {
		return nil, err
	}
	if r.wlog, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: policy}); err != nil {
		return nil, err
	}
	for _, ts := range r.meta.AllSeries() {
		r.scaling = append(r.scaling, ts.Scaling)
	}
	r.gids = r.meta.Groups()
	sort.Slice(r.gids, func(i, j int) bool { return r.gids[i] < r.gids[j] })
	for _, gid := range r.gids {
		tids := r.meta.TidsOf(gid)
		ts, err := r.meta.Series(tids[0])
		if err != nil {
			return nil, err
		}
		r.gis[gid] = core.NewGroupIngestor(core.IngestorConfig{
			Generator:     core.GeneratorConfig{Registry: r.reg, Bound: cfg.ErrorBound, LengthLimit: cfg.LengthLimit, OnSegment: r.sink},
			SplitFraction: cfg.SplitFraction, DisableSplitting: cfg.DisableSplitting,
		}, gid, ts.SI, tids)
	}
	if r.store, err = storage.OpenFileStore(filepath.Join(dir, "store"), r.members, cfg.BulkWriteSize); err != nil {
		return nil, err
	}
	// The engine mirrors the daemon's (observer installed, cache off)
	// except for parallelism: one worker keeps the executor's time a
	// single interval that the standalone layer spans can be taken from.
	r.eng = query.NewEngine(r.store, r.meta, r.reg, r.db.Schema())
	r.eng.SetParallelism(1)
	r.eng.SetObserver(&obs.QueryObserver{Metrics: obs.NewQueryMetrics(obs.NewRegistry())})
	r.rec = &recorder{tr: r.tr}
	r.appendH = httpapi.New(r.rec, httpapi.Options{}).Handler()
	r.queryH = httpapi.New(engineBackend{r.eng}, httpapi.Options{}).Handler()
	return r, nil
}

// close releases whatever newReplayer opened.
func (r *replayer) close() {
	if r.db != nil {
		r.db.Close()
	}
	if r.wlog != nil {
		r.wlog.Close()
	}
	if r.store != nil {
		r.store.Close()
	}
}

// sink receives the standalone ingestors' segments under a span nested
// in the core span that produced them.
func (r *replayer) sink(seg *core.Segment) error {
	id := r.tr.Begin("bench.sink", r.coreSpan, r.req, false)
	r.emitted = append(r.emitted, seg)
	r.segsEmitted++
	r.tr.End(id)
	return nil
}

// serve runs one request through a handler under a root span.
func (r *replayer) serve(name string, h http.Handler, path, contentType string, body []byte) (int, *httptest.ResponseRecorder) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	id := r.tr.Begin(name, -1, r.req, false)
	r.rec.parent, r.rec.req = id, r.req
	h.ServeHTTP(w, req)
	r.tr.End(id)
	return id, w
}

func (r *replayer) appendOp(b Body) error {
	r.rec.got = r.rec.got[:0]
	if _, w := r.serve("httpapi.append", r.appendH, "/api/v1/append", "application/json", b.JSON); w.Code != http.StatusOK {
		return fmt.Errorf("append handler: HTTP %d: %s", w.Code, w.Body.String())
	}
	pts := append([]core.DataPoint(nil), r.rec.got...)
	r.points += int64(len(pts))
	parent := r.tr.Begin("modelardb.append", -1, r.req, false)
	err := r.db.AppendBatch(r.ctx, pts)
	r.tr.End(parent)
	if err != nil {
		return err
	}
	// The same per-group slices AppendBatch forms, in first-seen order.
	var order []core.Gid
	slices := map[core.Gid][]core.DataPoint{}
	for _, p := range pts {
		gid, err := r.meta.GidOf(p.Tid)
		if err != nil {
			return err
		}
		if _, ok := slices[gid]; !ok {
			order = append(order, gid)
		}
		slices[gid] = append(slices[gid], p)
	}
	id := r.tr.Begin("wal.append", parent, r.req, true)
	for _, gid := range order {
		if _, err = r.wlog.Append(gid, 0, slices[gid]); err != nil {
			break
		}
	}
	r.tr.End(id)
	if err != nil {
		return err
	}
	r.coreSpan = r.tr.Begin("core.fit", parent, r.req, true)
	for _, gid := range order {
		gi := r.gis[gid]
		for _, p := range slices[gid] {
			if err = gi.Append(p.Tid, p.TS, p.Value*r.scaling[p.Tid-1]); err != nil {
				break
			}
		}
	}
	r.tr.End(r.coreSpan)
	if err != nil {
		return err
	}
	return r.storeWrite(parent, false)
}

// storeWrite inserts the emitted segments into the standalone store
// (and, at a flush, flushes and syncs it). Segment encoding happens
// inside the store's bulk flush, so it is replayed as a detached core
// span under the store write that flushed.
func (r *replayer) storeWrite(parent int, flush bool) error {
	off := r.store.LogOffset()
	id := r.tr.Begin("storage.write", parent, r.req, true)
	r.unflushed = append(r.unflushed, r.emitted...)
	var err error
	for _, seg := range r.emitted {
		if err = r.store.Insert(seg); err != nil {
			break
		}
	}
	r.segsInserted += int64(len(r.emitted))
	r.emitted = r.emitted[:0]
	if err == nil && flush {
		if err = r.store.Flush(); err == nil {
			err = r.store.Sync()
		}
	}
	r.tr.End(id)
	if err != nil {
		return err
	}
	if flush || r.store.LogOffset() != off {
		enc := r.tr.Begin("core.encode", id, r.req, true)
		for _, seg := range r.unflushed {
			seg.Encode(r.members(seg.Gid))
		}
		r.tr.End(enc)
		r.segsEncoded += int64(len(r.unflushed))
		r.unflushed = r.unflushed[:0]
	}
	return nil
}

func (r *replayer) flushOp() error {
	r.rec.got = r.rec.got[:0]
	if _, w := r.serve("httpapi.append", r.appendH, "/api/v1/append?flush=1", "application/json", []byte("[]")); w.Code != http.StatusOK {
		return fmt.Errorf("flush handler: HTTP %d: %s", w.Code, w.Body.String())
	}
	parent := r.tr.Begin("modelardb.flush", -1, r.req, false)
	err := r.db.Flush()
	r.tr.End(parent)
	if err != nil {
		return err
	}
	r.coreSpan = r.tr.Begin("core.fit", parent, r.req, true)
	for _, gid := range r.gids {
		if err = r.gis[gid].Flush(); err != nil {
			break
		}
	}
	r.tr.End(r.coreSpan)
	if err != nil {
		return err
	}
	if err := r.storeWrite(parent, true); err != nil {
		return err
	}
	seqs := map[core.Gid]uint64{}
	for _, gid := range r.gids {
		seqs[gid] = r.wlog.Seq(gid)
	}
	r.walBytes += r.wlog.BytesSinceCheckpoint()
	id := r.tr.Begin("wal.checkpoint", parent, r.req, true)
	err = r.wlog.Checkpoint(seqs, r.store.LogOffset())
	r.tr.End(id)
	return err
}

// rowQuery reports whether a query streams rows off the cursor, the
// queries per-row costs are measured on. (Aggregates take another
// executor path inside the cursor, so their cursor minus executor
// time is not a per-row cost.)
func rowQuery(q *QuerySpec) bool { return q.Class == classRange }

// drain runs sql through the Rows cursor, scanning every row, and
// counts the rows into n when n is not nil.
func (r *replayer) drain(sql string, n *int64) error {
	rows, err := r.eng.QueryRowsSQL(r.ctx, sql)
	if err != nil {
		return err
	}
	dest := make([]any, len(rows.Columns()))
	ptrs := make([]any, len(dest))
	for i := range dest {
		ptrs[i] = &dest[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			rows.Close()
			return err
		}
		if n != nil {
			*n++
		}
	}
	return errors.Join(rows.Err(), rows.Close())
}

// filterOf is the scan the engine's push-down performs for a query.
func (r *replayer) filterOf(q *QuerySpec) (storage.Filter, error) {
	var gids []core.Gid
	switch {
	case q.Tid > 0:
		gid, err := r.meta.GidOf(core.Tid(q.Tid))
		if err != nil {
			return storage.Filter{}, err
		}
		gids = []core.Gid{gid}
	case q.Category != "":
		gids = r.meta.GidsForMember("Measure", 1, q.Category)
	}
	if q.Windowed {
		return storage.TimeRange(q.From, q.To, gids...), nil
	}
	return storage.AllTime(gids...), nil
}

func (r *replayer) queryOp(q *QuerySpec) error {
	r.queries++
	r.dpv[r.req] = q.DataPointView
	// One untimed run first, so the handler and the cursor below both
	// meet warm caches and neither pays a first-touch cost alone.
	if err := r.drain(q.SQL, nil); err != nil {
		return err
	}
	root, w := r.serve("httpapi.query", r.queryH, "/api/v1/query", "text/plain", []byte(q.SQL))
	ans, err := parseAnswer(w.Code, w.Body.Bytes())
	if err == nil {
		err = q.Check(ans)
	}
	if err != nil {
		r.rep.Errorf("replayed %s: %v", q.Class, err)
		return nil
	}

	cursor := r.tr.Begin("query.rows", root, r.req, true)
	var n int64
	err = r.drain(q.SQL, &n)
	r.tr.End(cursor)
	if err != nil {
		return err
	}
	if rowQuery(q) {
		r.rowsOut += n
	}

	var parsed *sqlparse.Query
	parse := r.tr.Time("sqlparse.parse", cursor, r.req, true, func() { parsed, err = sqlparse.Parse(q.SQL) })
	if err != nil {
		return err
	}
	exec := r.tr.Begin("query.execute", cursor, r.req, true)
	acc := &query.PartialResult{}
	err = r.eng.ExecutePartialChunks(r.ctx, parsed, 0, func(part *query.PartialResult) error {
		r.tr.Time("query.merge", exec, r.req, false, func() { query.MergePartial(acc, part) })
		r.chunks++
		return nil
	})
	r.tr.End(exec)
	if err != nil {
		return err
	}

	filter, err := r.filterOf(q)
	if err != nil {
		return err
	}
	var segs []*core.Segment
	read := r.tr.Begin("storage.read", exec, r.req, true)
	err = r.store.ScanChunks(r.ctx, filter, 0, func(c storage.Chunk) error {
		ss, err := c.Segments()
		segs = append(segs, ss...)
		return err
	})
	r.tr.End(read)
	if err != nil {
		return err
	}
	total, err := r.store.Count()
	if err != nil {
		return err
	}
	r.segsRead += int64(len(segs))
	r.segsTotal += total
	encoded := make([][]byte, len(segs))
	for i, seg := range segs {
		encoded[i] = seg.Encode(r.members(seg.Gid))
	}
	r.tr.Time("core.decode", read, r.req, true, func() {
		for i, seg := range segs {
			if _, e := core.DecodeSegment(encoded[i], r.members(seg.Gid)); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	r.tr.Time("models.view", exec, r.req, true, func() {
		for _, seg := range segs {
			active := len(r.members(seg.Gid)) - len(seg.GapTids)
			if _, e := r.reg.View(seg.MID, seg.Params, active, seg.Length()); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	fin := r.tr.Time("query.finalize", cursor, r.req, true, func() { _, err = r.eng.Finalize(parsed, []*query.PartialResult{acc}) })
	if err != nil {
		return err
	}
	if rowQuery(q) {
		if err := r.perRow(q, parsed, root, cursor, exec, parse, fin); err != nil {
			return err
		}
	}
	if q.DataPointView {
		pts := int64(len(ans.Rows))
		if q.Class == classLAggDPV {
			if pts, err = ans.Int(0, 1); err != nil {
				return err
			}
		}
		r.pointsDPV += pts
	} else {
		r.segsSV += int64(len(segs))
	}
	return nil
}

// rowRepeats is how often the whole-query timings behind the per-row
// metrics are taken. Each is a small difference of whole-query times,
// so the minimum of each is used: a collection or a host pause in one
// run would otherwise swamp a cost of a few hundred nanoseconds a row.
const rowRepeats = 3

// perRow accumulates the handler's rendering (handler minus cursor)
// and the cursor's own cost (cursor minus parse, execution and
// finalization) of a row query, from the traced spans and
// rowRepeats-1 untraced repeats.
func (r *replayer) perRow(q *QuerySpec, parsed *sqlparse.Query, root, cursor, exec, parse, fin int) error {
	dur := func(id int) time.Duration { return time.Duration(r.tr.Spans[id].End - r.tr.Spans[id].Start) }
	h, d, x := dur(root), dur(cursor), dur(exec)
	for k := 1; k < rowRepeats; k++ {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(q.SQL))
		req.Header.Set("Content-Type", "text/plain")
		t := time.Now()
		r.queryH.ServeHTTP(httptest.NewRecorder(), req)
		h = min(h, time.Since(t))
		t = time.Now()
		if err := r.drain(q.SQL, nil); err != nil {
			return err
		}
		d = min(d, time.Since(t))
		t = time.Now()
		err := r.eng.ExecutePartialChunks(r.ctx, parsed, 0, func(part *query.PartialResult) error {
			query.MergePartial(&query.PartialResult{}, part)
			return nil
		})
		if err != nil {
			return err
		}
		x = min(x, time.Since(t))
	}
	r.renderNS += float64(h - d)
	r.cursorNS += float64(d - dur(parse) - x - dur(fin))
	return nil
}

// cacheHitRate re-runs the replayed queries over the final store with
// the library's default segment cache and returns its hit rate.
func (r *replayer) cacheHitRate(qs []*QuerySpec) (float64, error) {
	r.eng.EnableViewCache(defaultViewCache)
	defer r.eng.EnableViewCache(0)
	for _, q := range qs {
		parsed, err := sqlparse.Parse(q.SQL)
		if err != nil {
			return 0, err
		}
		if err := r.eng.ExecutePartialChunks(r.ctx, parsed, 0, func(*query.PartialResult) error { return nil }); err != nil {
			return 0, err
		}
	}
	hits, misses := r.eng.CacheStats()
	if hits+misses == 0 {
		return 0, errors.New("no segment cache lookups")
	}
	return float64(hits) / float64(hits+misses), nil
}

// replay re-issues res's requests layer by layer and reports per-layer
// metrics over all of them. Each layer's share and the residual no
// layer accounts for are taken over the requests of the measured window
// alone, against their untraced service time; set-up preloads and
// untimed checks are left out of both. Spans are written to spanPath
// when the replay ends.
func replay(ctx context.Context, res *Result, spanPath string) (*Report, error) {
	dir, err := os.MkdirTemp(filepath.Dir(spanPath), "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newReplayer(ctx, res, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	nextBody, stop := res.Bodies()
	defer stop()
	bodyIndex := 0
	perClass := map[string]int{}
	var untraced float64 // ms
	var replayed []*QuerySpec
	for i, op := range res.Ops {
		r.req = i
		switch {
		case op.Query != nil:
			if perClass[op.Query.Class] >= maxReplayPerClass {
				continue
			}
			perClass[op.Query.Class]++
			replayed = append(replayed, op.Query)
			err = r.queryOp(op.Query)
		case op.Flush:
			err = r.flushOp()
		default:
			// Appends replay in body order: one writer sends them and
			// they are acknowledged in sending order.
			b, ok := nextBody()
			if !ok || op.Body != bodyIndex {
				return nil, fmt.Errorf("request %d: body %d is not the next of the run (%d)", i, op.Body, bodyIndex)
			}
			bodyIndex++
			err = r.appendOp(b)
		}
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		if op.Side {
			r.side[i] = true
		} else {
			untraced += op.SvcMS
		}
	}
	if untraced <= 0 {
		return nil, errors.New("no request of the measured window was replayed")
	}
	r.walBytes += r.wlog.BytesSinceCheckpoint()
	hitRate, err := r.cacheHitRate(replayed)
	if err != nil {
		return nil, err
	}
	mix, err := r.db.ModelUsage()
	if err != nil {
		return nil, err
	}

	f, err := os.Create(spanPath)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(WriteSpans(f, r.tr.Spans), f.Close()); err != nil {
		return nil, err
	}
	return r.report(untraced*1e6, hitRate, mix, res.Counters), nil
}

func (r *replayer) report(untracedNS, hitRate float64, mix map[string]float64, ctr map[string]float64) *Report {
	st := SelfTimes(r.tr.Spans)
	self := map[string]float64{}
	incl := map[string]float64{}
	count := map[string]int{}
	layer := map[string]float64{}
	layerSpans := map[string]int{}
	var foldDPV, foldSV float64
	for i, s := range r.tr.Spans {
		v := float64(st[i])
		self[s.Name] += v
		incl[s.Name] += float64(s.End - s.Start)
		count[s.Name]++
		if !r.side[s.Req] {
			layer[s.Layer()] += v
			layerSpans[s.Layer()]++
		}
		switch {
		case s.Name == "query.execute" && r.dpv[s.Req]:
			foldDPV += v
		case s.Name == "query.execute":
			foldSV += v
		}
	}
	rep := r.rep
	per := func(name string, num float64, den int64, unit string) {
		if den <= 0 {
			rep.Errorf("%s: the replay did no work to measure it by", name)
			return
		}
		rep.Add(name, num/float64(den), unit, int(den))
	}
	per("httpapi.append_decode_ns_per_pt", self["httpapi.append"], r.points, "ns/pt")
	per("httpapi.render_ns_per_row", r.renderNS, r.rowsOut, "ns/row")
	per("modelardb.append_self_ns_per_pt", self["modelardb.append"], r.points, "ns/pt")
	per("modelardb.flush_ms", incl["modelardb.flush"]/1e6, int64(count["modelardb.flush"]), "ms")
	per("wal.append_ns_per_pt", self["wal.append"], r.points, "ns/pt")
	per("wal.bytes_per_pt", float64(r.walBytes), r.points, "B/pt")
	rep.Add("wal.fsyncs", float64(r.wlog.FsyncCount()), "count", 1)
	rep.Add("wal.daemon_fsyncs", ctr[ctrFsyncs], "count", 1)
	rep.Add("wal.daemon_sync_waits", ctr[ctrSyncWaits], "count", 1)
	per("core.fit_ns_per_pt", self["core.fit"], r.points, "ns/pt")
	per("core.segments_per_kpt", 1000*float64(r.segsEmitted), r.points, "seg/kpt")
	per("core.encode_ns_per_seg", self["core.encode"], r.segsEncoded, "ns/seg")
	per("core.decode_ns_per_seg", self["core.decode"], r.segsRead, "ns/seg")
	rep.Add("models.mix_pmc_pct", mix["PMC"], "%", int(r.segsEmitted))
	rep.Add("models.mix_swing_pct", mix["Swing"], "%", int(r.segsEmitted))
	rep.Add("models.mix_gorilla_pct", mix["Gorilla"], "%", int(r.segsEmitted))
	per("models.view_ns_per_seg", self["models.view"], r.segsRead, "ns/seg")
	per("storage.insert_ns_per_seg", self["storage.write"], r.segsInserted, "ns/seg")
	per("storage.read_ns_per_seg", self["storage.read"], r.segsRead, "ns/seg")
	per("storage.segments_per_query", float64(r.segsRead), r.queries, "seg/query")
	if r.segsTotal > 0 {
		rep.Add("storage.pruned_frac", 1-float64(r.segsRead)/float64(r.segsTotal), "fraction", int(r.queries))
	}
	per("sqlparse.parse_ns_per_query", self["sqlparse.parse"], r.queries, "ns/query")
	per("query.fold_ns_per_pt", foldDPV, r.pointsDPV, "ns/pt")
	per("query.fold_ns_per_seg", foldSV, r.segsSV, "ns/seg")
	per("query.merge_ns_per_chunk", self["query.merge"], r.chunks, "ns/chunk")
	per("query.finalize_ns_per_query", self["query.finalize"], r.queries, "ns/query")
	rep.Add("query.cache_hit_rate", hitRate, "fraction", int(r.queries))
	per("query.rows_ns_per_row", r.cursorNS, r.rowsOut, "ns/row")
	per("query.daemon_segments_per_query", ctr[ctrSegments], int64(ctr[ctrQueries]), "seg/query")
	var explained float64
	var spans int
	for _, l := range programLayers {
		rep.Add(l+".share", layer[l]/untracedNS, "fraction", layerSpans[l])
		explained += layer[l]
		spans += layerSpans[l]
	}
	rep.Add("residual_frac", (untracedNS-explained)/untracedNS, "fraction", spans)
	return rep
}
