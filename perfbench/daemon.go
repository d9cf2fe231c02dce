package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running opportunetd, started from its binary.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://addr
	obsBase string // http://obsaddr, when -obsaddr was given
	stderr  sync.WaitGroup
}

// startDaemon launches bin and waits until /readyz answers 200,
// returning the boot time in seconds.
func startDaemon(bin string, args ...string) (*daemon, float64, error) {
	t0 := time.Now()
	d := &daemon{cmd: exec.Command(bin, args...)}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	// The reader drains stderr until the daemon exits, so the daemon never
	// blocks on a full pipe; it hands over the listen addresses once.
	addrs := make(chan [2]string, 1)
	d.stderr.Add(1)
	go func() {
		defer d.stderr.Done()
		defer close(addrs)
		sc := bufio.NewScanner(pipe)
		var obsAddr string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := addrAfter(line, "[obs: serving "); ok {
				obsAddr = a
			}
			if a, ok := addrAfter(line, "serving queries on "); ok && !sent {
				addrs <- [2]string{a, obsAddr}
				sent = true
			}
		}
	}()
	var got [2]string
	var ok bool
	select {
	case got, ok = <-addrs:
	case <-time.After(2 * time.Minute):
	}
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("opportunetd did not start serving")
	}
	d.base = "http://" + got[0]
	if got[1] != "" {
		d.obsBase = "http://" + got[1]
	}
	for {
		if status, _ := get(context.Background(), http.DefaultClient, d.base+"/readyz", ""); status == http.StatusOK {
			return d, time.Since(t0).Seconds(), nil
		}
		if time.Since(t0) > 2*time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("opportunetd never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// addrAfter extracts the host:port of the first http:// URL after
// marker in line.
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i:]
	j := strings.Index(rest, "http://")
	if j < 0 {
		return "", false
	}
	f := strings.Fields(rest[j+len("http://"):])
	if len(f) == 0 {
		return "", false
	}
	return strings.TrimRight(f[0], "]"), true
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs,
// and waits for it and its stderr reader to finish.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.stderr.Wait()
}

// scrapeCounters reads the named counters from the daemon's /metrics
// (Prometheus text format; unlabelled samples only).
func (d *daemon) scrapeCounters(names ...string) (map[string]float64, error) {
	status, body := get(context.Background(), http.DefaultClient, d.obsBase+"/metrics", "")
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics: %q: %w", line, err)
			}
			out[f[0]] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics: no %s", n)
		}
	}
	return out, nil
}

// accessLine is the part of one access-log line the reduction needs.
type accessLine struct {
	Ev        string `json:"ev"`
	TraceID   string `json:"trace_id"`
	QueueNS   int64  `json:"queue_ns"`
	ComputeNS int64  `json:"compute_ns"`
	EncodeNS  int64  `json:"encode_ns"`
	TotalNS   int64  `json:"total_ns"`
	Coalesce  string `json:"coalesce"`
}

// readAccessLog indexes the daemon's access log by trace ID.
func readAccessLog(path string) (map[string]accessLine, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]accessLine)
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var l accessLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if l.Ev == "req" {
			out[l.TraceID] = l
		}
	}
	return out, nil
}
