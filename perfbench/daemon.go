package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running mroamd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// startDaemon execs mroamd on a loopback port of its choosing and waits
// until /healthz answers; the returned duration runs from exec to healthy,
// so it includes the daemon's fleet build.
func startDaemon(ctx context.Context, bin, fleet string, workers, traceStore int) (*daemon, time.Duration, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-instances", fleet,
		"-workers", strconv.Itoa(workers),
		"-cache-entries", "256",
		"-trace-store", strconv.Itoa(traceStore),
	}
	start := time.Now()
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start mroamd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read log records until the "serving" one names the bound address,
		// then drain the rest so the daemon never blocks on its pipe.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "serving" {
				addr <- rec.Addr
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // drain until the daemon exits
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("mroamd exited before serving: %v", err)
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, 0, errors.New("mroamd did not start serving within 120s")
	case <-ctx.Done():
		d.stop()
		return nil, 0, ctx.Err()
	}
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("mroamd never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, killing it if it does not within
// 30s, and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// fleetBuildSeconds sums the build time the daemon reports for its
// instances.
func fleetBuildSeconds(ctx context.Context, c *client) (float64, error) {
	var infos []struct {
		Info struct {
			BuildMS float64 `json:"build_ms"`
		} `json:"info"`
	}
	if err := c.get(ctx, "/instances", &infos); err != nil {
		return 0, err
	}
	total := 0.0
	for _, in := range infos {
		total += in.Info.BuildMS
	}
	return total / 1e3, nil
}

// promSnapshot is one scrape of /metrics: series (name plus labels, as
// exposed) to value.
type promSnapshot map[string]float64

// scrape reads the daemon's Prometheus exposition.
func scrape(ctx context.Context, c *client) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm parses Prometheus text exposition lines "series value".
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta is after - before for one series; a series absent from a scrape
// reads 0 (the daemon creates some series on first use).
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}
