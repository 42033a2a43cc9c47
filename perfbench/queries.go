package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// Query classes; each names the end-to-end latency it feeds.
const (
	classLAggSV  = "lagg_sv"  // L-AGG on the Segment view
	classLAggDPV = "lagg_dpv" // L-AGG on the DataPoint view
	classSAgg    = "sagg"     // S-AGG: one series
	classMAgg    = "magg"     // M-AGG: month cube of one category
	classMAggTid = "magg_tid" // M-AGG drilled down to Tid
	classRange   = "range"    // rows of one series in a time window
)

// QuerySpec is one query of a workload with everything needed to
// check its answer and to replay it layer by layer.
type QuerySpec struct {
	Class string
	SQL   string
	// Scan the engine's push-down performs, replayed against the
	// store directly in the traced run: a series (Tid > 0) or a
	// category's groups, within [From, To] when Windowed.
	Tid      int
	Category string
	Windowed bool
	From, To int64
	// DataPointView marks queries folded point by point.
	DataPointView bool
	Check         func(*Answer) error
}

func laggSV(ref Ref, eps float64) *QuerySpec {
	return &QuerySpec{Class: classLAggSV, SQL: "SELECT SUM_S(*), COUNT_S(*) FROM Segment", Check: sumCount("L-AGG SV", ref, eps)}
}

func laggDPV(ref Ref, eps float64) *QuerySpec {
	return &QuerySpec{Class: classLAggDPV, SQL: "SELECT SUM(Value), COUNT(*) FROM DataPoint", DataPointView: true, Check: sumCount("L-AGG DPV", ref, eps)}
}

func sagg(tid int, check func(*Answer) error) *QuerySpec {
	return &QuerySpec{Class: classSAgg, Tid: tid,
		SQL: fmt.Sprintf("SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE Tid = %d", tid), Check: check}
}

// sumCount checks a one-row (SUM, COUNT) answer against a reference.
func sumCount(what string, ref Ref, eps float64) func(*Answer) error {
	return func(a *Answer) error {
		if len(a.Rows) != 1 {
			return fmt.Errorf("%s: %d rows, want 1", what, len(a.Rows))
		}
		sum, err := a.Float(0, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		count, err := a.Int(0, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return CheckAgg(what, sum, count, ref, eps)
	}
}

// rangeQuery selects one series' rows in ticks [from, to]; check gets
// the decoded rows sorted by timestamp.
func rangeQuery(tid int, fromTS, toTS int64, check func([]Point) error) *QuerySpec {
	return &QuerySpec{
		Class: classRange, Tid: tid, Windowed: true, From: fromTS, To: toTS, DataPointView: true,
		SQL: fmt.Sprintf("SELECT TS, Value FROM DataPoint WHERE Tid = %d AND TS BETWEEN %d AND %d", tid, fromTS, toTS),
		Check: func(a *Answer) error {
			rows := make([]Point, len(a.Rows))
			for i := range a.Rows {
				ts, err := a.Int(i, 0)
				if err != nil {
					return err
				}
				v, err := a.Float(i, 1)
				if err != nil {
					return err
				}
				rows[i] = Point{TS: ts, Value: float32(v)}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].TS < rows[j].TS })
			return check(rows)
		},
	}
}

// monthOf is the UTC month bucket key CUBE_*_MONTH reports.
func monthOf(ts int64) int64 {
	t := time.UnixMilli(ts).UTC()
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).UnixMilli()
}

// cubeRefs holds M-AGG references: per month for the category and per
// (Tid, month) for the drill-down.
type cubeRefs struct {
	category string
	byMonth  map[int64]*Ref
	byTid    map[[2]int64]*Ref
}

func newCubeRefs(category string) *cubeRefs {
	return &cubeRefs{category: category, byMonth: map[int64]*Ref{}, byTid: map[[2]int64]*Ref{}}
}

func (c *cubeRefs) add(tid int, ts int64, v float32) {
	m := monthOf(ts)
	if c.byMonth[m] == nil {
		c.byMonth[m] = &Ref{}
	}
	c.byMonth[m].Add(v)
	k := [2]int64{int64(tid), m}
	if c.byTid[k] == nil {
		c.byTid[k] = &Ref{}
	}
	c.byTid[k].Add(v)
}

// magg is the category's month cube; drill adds Tid to the grouping.
func (c *cubeRefs) magg(eps float64, drill bool) *QuerySpec {
	q := &QuerySpec{Class: classMAgg, Category: c.category}
	if drill {
		q.Class = classMAggTid
		q.SQL = fmt.Sprintf("SELECT Measure.Category, Tid, CUBE_SUM_MONTH(*) FROM Segment WHERE Measure.Category = '%s' GROUP BY Measure.Category, Tid", c.category)
	} else {
		q.SQL = fmt.Sprintf("SELECT Measure.Category, CUBE_SUM_MONTH(*) FROM Segment WHERE Measure.Category = '%s' GROUP BY Measure.Category", c.category)
	}
	want := len(c.byMonth)
	if drill {
		want = len(c.byTid)
	}
	q.Check = func(a *Answer) error {
		if len(a.Rows) != want {
			return fmt.Errorf("%s: %d rows, want %d", q.Class, len(a.Rows), want)
		}
		for i := range a.Rows {
			cat, err := a.String(i, 0)
			if err != nil {
				return err
			}
			if cat != c.category {
				return fmt.Errorf("%s: row %d has category %q", q.Class, i, cat)
			}
			col := 1
			var tid int64
			if drill {
				if tid, err = a.Int(i, 1); err != nil {
					return err
				}
				col = 2
			}
			month, err := a.Int(i, col)
			if err != nil {
				return err
			}
			sum, err := a.Float(i, col+1)
			if err != nil {
				return err
			}
			ref := c.byMonth[month]
			if drill {
				ref = c.byTid[[2]int64{tid, month}]
			}
			if ref == nil {
				return fmt.Errorf("%s: row %d: no data in bucket tid=%d month=%d", q.Class, i, tid, month)
			}
			what := q.Class + " month " + strconv.FormatInt(month, 10)
			if err := CheckSum(what, sum, *ref, eps); err != nil {
				return err
			}
		}
		return nil
	}
	return q
}
