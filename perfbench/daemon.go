package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds daemon start-up.
const readyTimeout = 60 * time.Second

// Daemon is one modelardbd process with its own fresh directories.
type Daemon struct {
	dir      string
	cmd      *exec.Cmd
	APIURL   string // -http-api listener: the client's two connections
	AdminURL string // -http listener: /metrics, scraped outside timing
	exited   chan struct{}
	logMu    sync.Mutex
	log      bytes.Buffer
}

// launch starts modelardbd on a generated configuration with a file
// store, a WAL under the interval fsync policy and both HTTP listeners
// on loopback ports the kernel picks, and waits until its log reports
// it is serving.
func launch(bin, workDir, cfg string) (*Daemon, error) {
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &Daemon{dir: dir, exited: make(chan struct{})}
	cfgPath := filepath.Join(dir, "modelardb.conf")
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.cmd = exec.Command(bin, "-config", cfgPath,
		"-data", filepath.Join(dir, "data"), "-wal", filepath.Join(dir, "wal"), "-wal-fsync", "interval",
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-http-api", "127.0.0.1:0")
	// The daemon dies with the benchmark even if the benchmark is
	// killed before its cleanup runs.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ready := make(chan error, 1)
	go d.watch(stderr, ready)
	select {
	case err = <-ready:
	case <-time.After(readyTimeout):
		err = fmt.Errorf("modelardbd not ready after %v", readyTimeout)
	}
	if err != nil {
		d.Stop()
		return nil, fmt.Errorf("%w\n%s", err, d.Log())
	}
	return d, nil
}

// watch scans the daemon's log for its listen addresses. The TCP
// listener is opened last, so its line means every listener is up.
func (d *Daemon) watch(r io.Reader, ready chan<- error) {
	defer close(d.exited)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		d.log.WriteString(line + "\n")
		d.logMu.Unlock()
		if signalled {
			continue
		}
		switch {
		case strings.Contains(line, "admin endpoint on "):
			d.AdminURL = "http://" + fieldAfter(line, "admin endpoint on ")
		case strings.Contains(line, "HTTP API on "):
			d.APIURL = "http://" + fieldAfter(line, "HTTP API on ")
		case strings.Contains(line, "listening on "):
			if d.APIURL == "" || d.AdminURL == "" {
				ready <- fmt.Errorf("modelardbd listening without both HTTP listeners")
			} else {
				ready <- nil
			}
			signalled = true
		}
	}
	if !signalled {
		ready <- fmt.Errorf("modelardbd exited before it was ready")
	}
}

func fieldAfter(line, marker string) string {
	rest := line[strings.Index(line, marker)+len(marker):]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// Log returns what the daemon has logged so far.
func (d *Daemon) Log() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// Stop kills the daemon, waits for it to exit and removes its
// directories, so no later run inherits its store or WAL. It is safe
// to call more than once.
func (d *Daemon) Stop() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
		<-d.exited // the log pipe must be drained before Wait
		d.cmd.Wait()
		d.cmd = nil
	}
	os.RemoveAll(d.dir)
}

// PeakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil || len(f) < 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// Metrics scrapes the daemon's Prometheus exposition into a map keyed
// by the full series name (labels included).
func (d *Daemon) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.AdminURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	// A throwaway connection: scrapes happen outside timed regions and
	// must not count against the workload's connections.
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
