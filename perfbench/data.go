package main

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"strconv"
	"strings"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/partition"
	"modelardb/internal/tsgen"
)

// bodyPoints is the number of points in one /api/v1/append body.
const bodyPoints = 1024

// Data set shapes. EP keeps the modelardb-bench default scale (96
// series, 48 groups of ~85 segments at 5%), so an L-AGG reads about
// four times the 1024-segment default cache and one S-AGG reads one
// group. EP's sampling interval is stretched to an hour so the
// generated history spans six calendar months for M-AGG's month cube.
// EH has the default 16 series; its tick count only bounds how much an
// ingest run can send (20 M points) and sets the diurnal period.
const (
	epEntities  = 24
	epTicks     = 4000
	epSI        = int64(time.Hour / time.Millisecond)
	ehSeries    = 16
	ehTicks     = 1_250_000
	gapRate     = 0.0005
	ehStartTime = int64(1_600_000_000_000)
)

var epStartTime = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

func epDataset(seed int64) *tsgen.Dataset {
	return tsgen.EP(tsgen.EPConfig{Entities: epEntities, Ticks: epTicks, SI: epSI, Seed: seed, GapRate: gapRate, StartTime: epStartTime})
}

func ehDataset(seed int64) *tsgen.Dataset {
	return tsgen.EH(tsgen.EHConfig{Series: ehSeries, Ticks: ehTicks, Seed: seed, GapRate: gapRate, StartTime: ehStartTime})
}

// epClauses groups the measures of one entity and category, the
// analogue of the paper's EP correlation (§7.3).
var epClauses = []string{
	"Production 0, Measure 1 Production",
	"Production 0, Measure 1 Temperature",
}

// ehClauses is the lowest-distance rule of thumb §7.3 uses for EH.
func ehClauses(d *tsgen.Dataset) ([]string, error) {
	schema, err := dims.NewSchema(d.Dimensions...)
	if err != nil {
		return nil, err
	}
	return []string{strconv.FormatFloat(partition.LowestDistance(schema), 'g', -1, 64)}, nil
}

// configText renders the daemon configuration for a data set: the
// daemon receives only this file and the request bodies.
func configText(d *tsgen.Dataset, boundPct float64, clauses []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "error_bound %g\nwal_fsync interval\n", boundPct)
	for _, dim := range d.Dimensions {
		fmt.Fprintf(&b, "dimension %s %s\n", dim.Name, strings.Join(dim.Levels, " "))
	}
	for _, c := range clauses {
		fmt.Fprintf(&b, "correlation %s\n", c)
	}
	for _, s := range d.Series {
		fmt.Fprintf(&b, "series %s %d", s.Source, s.SI)
		for _, dim := range d.Dimensions {
			fmt.Fprintf(&b, " %s=%s", dim.Name, strings.Join(s.Members[dim.Name], "/"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var errStop = errors.New("stop")

// blockStream pulls a data set's points in arrival order, one append
// body at a time, without materializing the data set.
type blockStream struct {
	next func() ([]core.DataPoint, bool)
	stop func()
}

func newBlockStream(d *tsgen.Dataset) *blockStream {
	seq := func(yield func([]core.DataPoint) bool) {
		block := make([]core.DataPoint, 0, bodyPoints)
		err := d.Points(func(p core.DataPoint) error {
			block = append(block, p)
			if len(block) == bodyPoints {
				if !yield(block) {
					return errStop
				}
				block = make([]core.DataPoint, 0, bodyPoints)
			}
			return nil
		})
		if err == nil && len(block) > 0 {
			yield(block)
		}
	}
	next, stop := iter.Pull(seq)
	return &blockStream{next: next, stop: stop}
}

// Body is one encoded append request and the points as the server
// decodes them.
type Body struct {
	JSON   []byte
	N      int              // points in the body
	Points []core.DataPoint // nil once a workload has logged them
}

// encodeBody renders points as an /api/v1/append JSON array. Values are
// written as the shortest float32 spelling; the returned points carry
// what the server's float64 parse narrowed to float32 yields, which is
// what every reference is computed from.
func encodeBody(pts []core.DataPoint) Body {
	buf := make([]byte, 0, len(pts)*44)
	out := make([]core.DataPoint, len(pts))
	buf = append(buf, '[')
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"tid":`...)
		buf = strconv.AppendInt(buf, int64(p.Tid), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendInt(buf, p.TS, 10)
		buf = append(buf, `,"value":`...)
		start := len(buf)
		buf = strconv.AppendFloat(buf, float64(p.Value), 'g', -1, 32)
		f, _ := strconv.ParseFloat(string(buf[start:]), 64)
		out[i] = core.DataPoint{Tid: p.Tid, TS: p.TS, Value: float32(f)}
		buf = append(buf, '}')
	}
	buf = append(buf, ']')
	return Body{JSON: buf, N: len(out), Points: out}
}

// seriesLog keeps the raw values of every series by tick, as sent, so
// range answers and live aggregates can be checked.
type seriesLog struct {
	start, si int64
	vals      [][]float32 // per Tid-1, per tick; NaN in gaps
	total     []Ref       // per Tid-1
	// live answers are checked against what was acknowledged when the
	// query ran, which needs per-value prefix sums and ticks.
	live  bool
	sums  []SumRange // per Tid-1, over the non-gap values
	ticks [][]int32  // per Tid-1, tick of each non-gap value
}

func newSeriesLog(n int, start, si int64, live bool) *seriesLog {
	l := &seriesLog{start: start, si: si, vals: make([][]float32, n), total: make([]Ref, n), live: live}
	if live {
		l.sums, l.ticks = make([]SumRange, n), make([][]int32, n)
	}
	return l
}

func (l *seriesLog) add(pts []core.DataPoint) {
	for _, p := range pts {
		i, tick := int(p.Tid-1), int((p.TS-l.start)/l.si)
		for len(l.vals[i]) < tick {
			l.vals[i] = append(l.vals[i], float32(math.NaN()))
		}
		l.vals[i] = append(l.vals[i], p.Value)
		l.total[i].Add(p.Value)
		if l.live {
			l.sums[i].Append(p.Value)
			l.ticks[i] = append(l.ticks[i], int32(tick))
		}
	}
}

// window returns the raw points of series tid in ticks [from, to].
func (l *seriesLog) window(tid int, from, to int) []Point {
	vs := l.vals[tid-1]
	var out []Point
	for t := max(from, 0); t <= to && t < len(vs); t++ {
		if !math.IsNaN(float64(vs[t])) {
			out = append(out, Point{TS: l.start + int64(t)*l.si, Value: vs[t]})
		}
	}
	return out
}

// countThrough returns how many values of series tid lie at ticks <= t.
func (l *seriesLog) countThrough(tid int, t int) int {
	ts := l.ticks[tid-1]
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ts[mid]) <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *seriesLog) all() Ref {
	var r Ref
	for _, t := range l.total {
		r.Count += t.Count
		r.Sum += t.Sum
		r.AbsSum += t.AbsSum
	}
	return r
}

// tsOf is the timestamp of tick t.
func (l *seriesLog) tsOf(t int) int64 { return l.start + int64(t)*l.si }
