//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
)

// ops counts operations attempted and failed over a run; it becomes the
// result line's attempted/failed and decides correct.
type ops struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

// check counts one operation and, when err is non-nil, one failure.
func (o *ops) check(err error) error {
	o.attempted.Add(1)
	if err != nil {
		o.failed.Add(1)
		msg := err.Error()
		o.firstErr.CompareAndSwap(nil, &msg)
	}
	return err
}

// sweepStatus mirrors the fields of smtd's sweep status the harness reads.
type sweepStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	TotalJobs int    `json:"total_jobs"`
	DoneJobs  int    `json:"done_jobs"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error"`
}

// sweepBody is the POST /v1/sweep request for an inline grid.
type sweepBody struct {
	Name string      `json:"name"`
	Grid []gridPoint `json:"grid"`
	Opts exp.Opts    `json:"opts"`
	Wait bool        `json:"wait"`
}

// client is one closed-loop smtd client: every call is one operation in
// ops and, when tracing, one span.
type client struct {
	base string
	hc   *http.Client
	ops  *ops
	rec  *recorder
}

func newClient(base string, o *ops, rec *recorder) *client {
	return &client{base: base, hc: &http.Client{Timeout: 120 * time.Second}, ops: o, rec: rec}
}

// do issues one request and returns the body of a 2xx reply; any other
// status is an error carrying the body.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return raw, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.StatusCode, nil
}

// sweepTiming is what one sweep cost the client.
type sweepTiming struct {
	ack   time.Duration // POST sent -> reply received (202, or 200 with wait)
	fetch time.Duration // GET result
	total time.Duration // submit -> result bytes in hand
}

// runSweep submits one sweep and returns its result bytes. With wait the
// POST blocks until the sweep is done; without, the status is polled every
// pollEvery. A sweep that does not reach "done" with every job accounted
// for is a failed operation.
func (c *client) runSweep(ctx context.Context, parent int, id string, body sweepBody, pollEvery time.Duration) ([]byte, sweepStatus, sweepTiming, error) {
	var tm sweepTiming
	root := c.rec.begin(parent, id, "smtd.sweep")
	defer c.rec.end(root)
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, sweepStatus{}, tm, err
	}
	t0 := time.Now()
	var st sweepStatus
	tm.ack = c.rec.timed(root, id, "smtd.submit", func() {
		var reply []byte
		reply, _, err = c.do(ctx, http.MethodPost, "/v1/sweep", raw)
		if err == nil {
			err = json.Unmarshal(reply, &st)
		}
	})
	if c.ops.check(err) != nil {
		return nil, st, tm, err
	}
	for st.State == "running" {
		select {
		case <-ctx.Done():
			err = fmt.Errorf("sweep %s still running: %w", st.ID, ctx.Err())
			c.ops.check(err)
			return nil, st, tm, err
		case <-time.After(pollEvery):
		}
		c.rec.timed(root, id, "smtd.poll", func() {
			var reply []byte
			reply, _, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
			if err == nil {
				err = json.Unmarshal(reply, &st)
			}
		})
		if c.ops.check(err) != nil {
			return nil, st, tm, err
		}
	}
	if st.State != "done" || st.DoneJobs != st.TotalJobs || st.TotalJobs != len(body.Grid)*body.Opts.Runs {
		err = fmt.Errorf("sweep %s ended %s with %d/%d jobs (want %d): %s",
			st.ID, st.State, st.DoneJobs, st.TotalJobs, len(body.Grid)*body.Opts.Runs, st.Error)
		c.ops.check(err)
		return nil, st, tm, err
	}
	var result []byte
	tm.fetch = c.rec.timed(root, id, "smtd.result_fetch", func() {
		result, _, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	})
	tm.total = time.Since(t0)
	if c.ops.check(err) != nil {
		return nil, st, tm, err
	}
	return result, st, tm, nil
}

// metrics scrapes /metrics into series -> value (labels kept in the key).
func (c *client) metrics(ctx context.Context, parent int) (map[string]float64, error) {
	var raw []byte
	var err error
	c.rec.timed(parent, "", "trace.metrics_scrape", func() {
		raw, _, err = c.do(ctx, http.MethodGet, "/metrics", nil)
	})
	if c.ops.check(err) != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// workers reads the coordinator's fleet and scheduler status.
func (c *client) workers(ctx context.Context, parent int) (dist.Status, error) {
	var st dist.Status
	var err error
	c.rec.timed(parent, "", "trace.workers_scrape", func() {
		var raw []byte
		raw, _, err = c.do(ctx, http.MethodGet, "/v1/workers", nil)
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
	})
	return st, c.ops.check(err)
}

// delta is after-before for every series either scrape holds.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
