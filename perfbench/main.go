// Command perfbench is modelardb's end-to-end benchmark. It launches a
// real modelardbd (file store, WAL with interval fsync, HTTP API on
// loopback) with fresh directories, drives it over at most two HTTP
// connections with one seeded workload, checks every answer against
// the raw generated points, and prints the workload's metrics. With
// --trace 1 it also replays the same requests in-process, layer by
// layer, and reports per-layer self time, each layer's share and the
// residual the layers do not explain. See NOTES.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload agg-ep --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: ingest-eh, agg-ep or online-eh")
	seed := flag.Int64("seed", 1, "seed of the generated data and request sequence")
	seconds := flag.Int("seconds", 10, "how long the workload is measured")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	bin := flag.String("daemon", "", "modelardbd binary")
	workDir := flag.String("workdir", "", "directory for the daemons' data and the span dump")
	flag.Parse()
	// The largest input, online-eh's pre-encoded bodies, is about
	// 160 MB; a soft limit keeps the collector from doubling that.
	debug.SetMemoryLimit(memoryLimit)
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *bin, *workDir))
}

// memoryLimit is the benchmark's soft heap limit.
const memoryLimit = 384 << 20

func run(name string, seed int64, seconds int, trace bool, bin, workDir string) int {
	var w *Workload
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil || seconds < 1 || bin == "" || workDir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (ingest-eh, agg-ep, online-eh), --seconds >= 1, -daemon and -workdir\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := &Env{Bin: bin, WorkDir: workDir, Seed: seed, Run: time.Duration(seconds) * time.Second}
	defer e.Cleanup()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		// A signal stops the daemons at once; the run then fails fast.
		<-ctx.Done()
		e.Cleanup()
	}()

	res, err := w.Run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	metrics := res.Generic
	var layers *Report
	if trace && res.Failed == 0 {
		e.Cleanup() // the daemon's work is done; free its memory
		layers, err = replay(ctx, res, filepath.Join(workDir, "spans-"+name+".jsonl"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced replay: %v\n", name, err)
			return 1
		}
		metrics = map[string]Metric{}
		for _, m := range layers.Metrics {
			metrics[m.Name] = m
		}
	}

	printTable(name, seed, res, layers)
	correct := res.Failed == 0 && len(res.Report.Errors) == 0 && (layers == nil || len(layers.Errors) == 0)
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{correct, max(res.Attempted, 1), res.Failed, map[string]json.RawMessage{}}
	for name, m := range metrics {
		out.Metrics[name] = json.RawMessage(fmt.Sprintf(`{"value":%s,"unit":%q}`, jsonNumber(m.Value), m.Unit))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// jsonNumber renders a measured value with all its digits.
func jsonNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// printTable prints every metric by name with its unit and sample
// count, then any failed check, ahead of the JSON result line.
func printTable(name string, seed int64, res *Result, layers *Report) {
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", name, seed, res.Attempted, res.Failed)
	rows := append([]Metric{}, res.Report.Metrics...)
	errRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	rows = append(rows, Metric{Name: "error_rate", Value: errRate, Unit: "fraction", Samples: res.Attempted})
	if layers != nil {
		rows = append(rows, layers.Metrics...)
	}
	for _, m := range rows {
		fmt.Printf("  %-34s %16.6g %-10s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	names := make([]string, 0, len(res.Counters))
	for n := range res.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  daemon %-43s %16.6g\n", n, res.Counters[n])
	}
	errs := res.Report.Errors
	if layers != nil {
		errs = append(errs, layers.Errors...)
	}
	for _, e := range errs {
		fmt.Printf("  FAILED: %s\n", e)
	}
}
