package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// The load generator. Every request is timed from its due time — the
// instant it was scheduled to be sent — not from when a goroutine got round
// to sending it, so a stall shows in the latency of every request queued
// behind it. All requests share one transport capped at nproc connections.

// op is one scheduled operation: a /solve request or an advertiser PATCH.
type op struct {
	due   time.Duration // offset from the window start (open loop only)
	trace string        // request ID shared with the daemon's spans
	solve *solveRequest
	patch *patchRequest
}

// solveRequest mirrors the daemon's POST /solve body.
type solveRequest struct {
	Instance           string `json:"instance"`
	Algorithm          string `json:"algorithm"`
	Seed               uint64 `json:"seed"`
	Restarts           int    `json:"restarts"`
	WarmStart          bool   `json:"warm_start,omitempty"`
	IncludeAssignments bool   `json:"include_assignments,omitempty"`
}

// solveResponse holds the fields of the daemon's answer the checks read.
type solveResponse struct {
	Generation        uint64  `json:"generation"`
	TotalRegret       float64 `json:"total_regret"`
	Truncated         bool    `json:"truncated"`
	Evals             int64   `json:"evals"`
	WarmStarted       bool    `json:"warm_started"`
	FrozenAdvertisers int     `json:"frozen_advertisers"`
	Assignments       [][]int `json:"assignments"`
}

// patchRequest is one PATCH /instances/{name}/advertisers call.
type patchRequest struct {
	Instance string            `json:"-"`
	Ops      []catalog.PatchOp `json:"ops"`
}

// sample is the outcome of one op.
type sample struct {
	op         *op
	due        time.Time // when the op was scheduled to be sent
	dispatched time.Time // when the generator got to it
	sent       time.Time // when it held a connection slot and was sent
	done       time.Time
	err        error   // transport error, non-2xx status or truncated solve
	serverMS   float64 // Server-Timing total (solves only)
	solve      solveResponse
	generation uint64 // catalog generation a PATCH installed
}

// latency is the time from due to completion.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how late the generator dispatched the op.
func (s *sample) lateness() time.Duration { return s.dispatched.Sub(s.due) }

// doFunc performs one op, filling err and the response fields of s.
type doFunc func(ctx context.Context, s *sample)

// openLoop sends ops on their schedule regardless of completions, with at
// most conns in flight; an op due while every slot is busy waits for one,
// and that wait counts in its latency. It returns when every op finished.
func openLoop(ctx context.Context, start time.Time, ops []op, conns int, do doFunc) []*sample {
	out := make([]*sample, len(ops))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for i := range ops {
		s := &sample{op: &ops[i], due: start.Add(ops[i].due)}
		out[i] = s
		if wait := time.Until(s.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		s.dispatched = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			s.sent = time.Now()
			if ctx.Err() != nil {
				s.err, s.done = ctx.Err(), time.Now()
				return
			}
			do(ctx, s)
			s.done = time.Now()
		}()
	}
	wg.Wait()
	return out
}

// sendNow performs o at once, outside any schedule: it is due the moment
// it is sent.
func sendNow(ctx context.Context, do doFunc, o op) *sample {
	now := time.Now()
	s := &sample{op: &o, due: now, dispatched: now, sent: now}
	do(ctx, s)
	s.done = time.Now()
	return s
}

// client talks to one daemon over the shared capped transport.
// With spans (the traced run) every request carries a traceparent, so the
// daemon's spans share the request's ID, and the client records its own
// span around the call.
type client struct {
	base  string
	http  *http.Client
	spans *tracer
}

func newClient(base string, conns int, spans *tracer) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}, spans: spans}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends a sample's op and records its outcome.
func (c *client) do(ctx context.Context, s *sample) {
	var err error
	switch {
	case s.op.solve != nil:
		err = c.solve(ctx, s)
	case s.op.patch != nil:
		err = c.doPatch(ctx, s)
	default:
		err = fmt.Errorf("empty op")
	}
	s.err = err
}

func (c *client) solve(ctx context.Context, s *sample) error {
	hdr, body, err := c.call(ctx, s, http.MethodPost, "/solve", s.op.solve, "client.solve")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &s.solve); err != nil {
		return fmt.Errorf("decode solve response: %w", err)
	}
	s.serverMS = obs.ParseServerTiming(hdr.Get("Server-Timing"))["total"]
	if s.solve.Truncated {
		return fmt.Errorf("solve %+v truncated", *s.op.solve)
	}
	return nil
}

func (c *client) doPatch(ctx context.Context, s *sample) error {
	p := s.op.patch
	_, body, err := c.call(ctx, s, http.MethodPatch, "/instances/"+p.Instance+"/advertisers", p, "client.patch")
	if err != nil {
		return err
	}
	var info struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("decode patch response: %w", err)
	}
	s.generation = info.Generation
	return nil
}

// call performs one JSON request; a non-2xx status is an error.
func (c *client) call(ctx context.Context, s *sample, method, path string, in any, span string) (http.Header, []byte, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.spans != nil && s.op.trace != "" {
		req.Header.Set("Traceparent", obs.FormatTraceparent(s.op.trace, s.op.trace[:16], true))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	c.spans.add(s.op.trace, 0, span, start, time.Now())
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.Header, body, nil
}

// get fetches a path and decodes its JSON body into v.
func (c *client) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loadStats summarizes a window's samples: due-time latencies of solves
// and patches, the generator's lateness, and failures.
type loadStats struct {
	solveMS, patchMS, lateMS []float64
	unattributedMS           []float64
}

func summarize(samples []*sample, rep *report) loadStats {
	var st loadStats
	for _, s := range samples {
		rep.tally.record(s.err)
		st.lateMS = append(st.lateMS, ms(s.lateness()))
		if s.err != nil {
			continue
		}
		switch {
		case s.op.solve != nil:
			st.solveMS = append(st.solveMS, ms(s.latency()))
			st.unattributedMS = append(st.unattributedMS, ms(s.done.Sub(s.sent))-s.serverMS)
		case s.op.patch != nil:
			st.patchMS = append(st.patchMS, ms(s.latency()))
		}
	}
	return st
}

// maxLatenessMS bounds the generator: a run whose p90 dispatch lateness
// exceeds it measured the generator, not the daemon, and is rejected.
const maxLatenessMS = 5.0

// checkLateness reports the generator's lateness and rejects a late run.
func checkLateness(rep *report, lateMS []float64) {
	p90 := percentile(lateMS, 900)
	maxLate := percentile(lateMS, 1000)
	rep.note("generator lateness: p90 %.3f ms, max %.3f ms over %d ops (bound: p90 <= %g ms)", p90, maxLate, len(lateMS), maxLatenessMS)
	rep.check(p90 <= maxLatenessMS, "generator ran late: p90 lateness %.3f ms > %g ms", p90, maxLatenessMS)
}
