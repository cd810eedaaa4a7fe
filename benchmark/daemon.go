package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// moduleRoot walks up from the working directory to the directory
// holding this module's go.mod, so the harness works both from the
// repository root (go run ./benchmark) and from its own directory
// (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod of module repro not found above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/whirlpoold from source into outDir.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "whirlpoold")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/whirlpoold")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/whirlpoold: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is one booted whirlpoold child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *os.File
	client *http.Client

	wg       sync.WaitGroup
	stopOnce sync.Once
	exited   chan struct{} // closed once Wait returned
	waitErr  error         // valid after exited is closed
}

// startDaemon spawns bin with args on a free port, appending its stderr
// to stderrPath, and returns once /healthz answers 200. The child dies
// with ctx; a child that exits before becoming healthy is an error.
func startDaemon(ctx context.Context, bin string, args []string, stderrPath string, client *http.Client) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, stderr: logf, client: client, exited: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, append(args, "-addr", addr)...)
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before becoming healthy: %v (stderr in %s)", d.waitErr, d.stderr.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return errors.New("daemon not healthy after 60s")
		case <-tick.C:
		}
	}
}

// alive reports whether the child is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop kills the child and waits until it has ended; calling it again
// is a no-op.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		if d.alive() {
			_ = d.cmd.Process.Kill() // already-exited is the only failure, and then there is nothing to kill
		}
		d.wg.Wait()
		d.client.CloseIdleConnections()
		d.stderr.Close()
	})
}

// procMB reads "Key:   <n> kB" fields of a /proc/<pid> file (status,
// smaps_rollup) and returns their sum in megabytes.
func (d *daemon) procMB(file string, keys ...string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), file))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	total, found := 0.0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		for _, k := range keys {
			if fields[0] == k+":" {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return 0, fmt.Errorf("%s %s: %w", file, k, err)
				}
				total += kb / 1024
				found = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("/proc/%d/%s has none of %v", d.cmd.Process.Pid, file, keys)
	}
	return total, nil
}

// peakRSS is the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSS() (float64, error) { return d.procMB("status", "VmHWM") }

// privateRSS is the part of the resident set no other process can
// share: what four daemons on one snapshot would each pay.
func (d *daemon) privateRSS() (float64, error) {
	return d.procMB("smaps_rollup", "Private_Clean", "Private_Dirty")
}

// metricSet is one /metrics scrape keyed by name (labels summed away,
// which is all the per-shard series need here).
type metricSet struct {
	value map[string]int64 // counters and gauges
	sum   map[string]int64 // histogram sums
	count map[string]int64 // histogram counts
}

// scrape reads /metrics (JSON form).
func (d *daemon) scrape() (*metricSet, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	ms := &metricSet{value: map[string]int64{}, sum: map[string]int64{}, count: map[string]int64{}}
	for _, m := range body.Metrics {
		if m.Histogram != nil {
			ms.sum[m.Name] += m.Histogram.Sum
			ms.count[m.Name] += m.Histogram.Count
			continue
		}
		ms.value[m.Name] += m.Value
	}
	return ms, nil
}

// delta returns after − before for a counter.
func delta(before, after *metricSet, name string) int64 {
	return after.value[name] - before.value[name]
}

// histMean returns the mean of a histogram's observations between two
// scrapes (its log2 buckets are too coarse for a median; sums and
// counts are exact).
func histMean(before, after *metricSet, name string) float64 {
	n := after.count[name] - before.count[name]
	if n <= 0 {
		return 0
	}
	return float64(after.sum[name]-before.sum[name]) / float64(n)
}
