// Package faults is the chaos suite's deterministic fault injector: an
// http.RoundTripper that drops, delays, 5xxes, truncates, or corrupts
// traffic on a seeded schedule described by a compact spec string. It
// exists to *prove* the service stack's safety argument — results are
// deterministic functions of content-addressed keys, so any transport
// failure may legally degrade to "miss, re-simulate" — instead of
// asserting it in comments.
//
// Spec grammar (whitespace-insensitive):
//
//	spec  = rule *( ";" rule )
//	rule  = pattern "=" fault *( "," fault )
//	fault = kind [ ":" arg ] "@" probability
//
// pattern is a substring matched against the request URL path; the
// first matching rule governs the request. Kinds:
//
//	err            fail the request with a transport error (never sent)
//	latency:50ms   delay the request (ctx-aware) before sending it
//	code:503       answer with that status and a stub body (never sent)
//	truncate       send normally, cut the response body in half
//	corrupt        send normally, overwrite part of the body with NULs
//
// Example: "/v1/cache=err@0.2,latency:10ms@0.3;/v1/work=code:503@0.1".
//
// Determinism: each rule counts its matching requests; whether the k-th
// match suffers a given fault is a pure function of (seed, rule, k,
// fault). Concurrent requests may interleave arrival order, but the
// invariant the chaos suite asserts — byte-identical results — holds
// under every schedule, and a single-client replay with the same seed
// reproduces decisions exactly. Corruption writes NUL bytes, which no
// JSON payload in the protocol can contain, so a corrupted body is
// always a decode failure (a detectable miss), never a silently wrong
// value — mirroring what the disk tier's checksums guarantee at rest.
package faults

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Kind labels one fault flavor.
type Kind string

const (
	KindErr      Kind = "err"
	KindLatency  Kind = "latency"
	KindCode     Kind = "code"
	KindTruncate Kind = "truncate"
	KindCorrupt  Kind = "corrupt"
)

type fault struct {
	kind  Kind
	code  int           // KindCode
	delay time.Duration // KindLatency
	prob  float64       // in [0, 1]
}

type rule struct {
	pattern string
	faults  []fault
	n       atomic.Int64 // requests this rule has governed
}

// Stats counts injected faults by kind, plus requests passed untouched.
type Stats struct {
	Errors    int64
	Delays    int64
	Codes     int64
	Truncates int64
	Corrupts  int64
	Passed    int64
}

// Transport is the fault-injecting http.RoundTripper. Safe for
// concurrent use.
type Transport struct {
	base  http.RoundTripper
	seed  uint64
	rules []*rule

	errors, delays, codes, truncates, corrupts, passed atomic.Int64
}

// New parses spec and wraps base (nil base uses
// http.DefaultTransport). An empty spec injects nothing.
func New(spec string, seed uint64, base http.RoundTripper) (*Transport, error) {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &Transport{base: base, seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return t, nil
	}
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		pattern, faultsSpec, ok := strings.Cut(rs, "=")
		pattern = strings.TrimSpace(pattern)
		if !ok || pattern == "" {
			return nil, fmt.Errorf("faults: rule %q: want pattern=fault,...", rs)
		}
		r := &rule{pattern: pattern}
		for _, fs := range strings.Split(faultsSpec, ",") {
			f, err := parseFault(strings.TrimSpace(fs))
			if err != nil {
				return nil, fmt.Errorf("faults: rule %q: %w", rs, err)
			}
			r.faults = append(r.faults, f)
		}
		t.rules = append(t.rules, r)
	}
	return t, nil
}

func parseFault(s string) (fault, error) {
	head, probStr, ok := strings.Cut(s, "@")
	if !ok {
		return fault{}, fmt.Errorf("fault %q: missing @probability", s)
	}
	prob, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
	if err != nil || prob < 0 || prob > 1 {
		return fault{}, fmt.Errorf("fault %q: probability must be in [0,1]", s)
	}
	kindStr, arg, hasArg := strings.Cut(strings.TrimSpace(head), ":")
	f := fault{kind: Kind(kindStr), prob: prob}
	switch f.kind {
	case KindErr, KindTruncate, KindCorrupt:
		if hasArg {
			return fault{}, fmt.Errorf("fault %q: %s takes no argument", s, f.kind)
		}
	case KindLatency:
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return fault{}, fmt.Errorf("fault %q: bad latency %q", s, arg)
		}
		f.delay = d
	case KindCode:
		c, err := strconv.Atoi(arg)
		if err != nil || c < 100 || c > 599 {
			return fault{}, fmt.Errorf("fault %q: bad status code %q", s, arg)
		}
		f.code = c
	default:
		return fault{}, fmt.Errorf("fault %q: unknown kind %q", s, kindStr)
	}
	return f, nil
}

// Stats snapshots the injection counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Errors:    t.errors.Load(),
		Delays:    t.delays.Load(),
		Codes:     t.codes.Load(),
		Truncates: t.truncates.Load(),
		Corrupts:  t.corrupts.Load(),
		Passed:    t.passed.Load(),
	}
}

// injectedError is the transport error KindErr produces; distinguishable
// in test logs from real network failures.
type injectedError struct{ path string }

func (e *injectedError) Error() string {
	return "faults: injected transport error on " + e.path
}

// decide reports whether fault fi of rule ri fires for that rule's k-th
// request — a pure function of the transport seed and those indices.
func (t *Transport) decide(ri int, k int64, fi int) bool {
	f := t.rules[ri].faults[fi]
	if f.prob <= 0 {
		return false
	}
	if f.prob >= 1 {
		return true
	}
	x := mix(t.seed, uint64(ri)+1, uint64(k)+1, uint64(fi)+1)
	return float64(x>>11)/float64(1<<53) < f.prob
}

func mix(vals ...uint64) uint64 {
	var x uint64
	for _, v := range vals {
		x = rng.Mix((x ^ v) + rng.Golden)
	}
	return x
}

// RoundTrip applies the first matching rule's fault schedule, then (if
// the request survives) delegates to the base transport. Pre-send
// faults (err, code) guarantee the request never reached the server —
// no lease was granted, no fill was stored — which is what makes them
// safe to inject on every edge.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ri := -1
	for i, r := range t.rules {
		if strings.Contains(req.URL.Path, r.pattern) {
			ri = i
			break
		}
	}
	if ri < 0 {
		t.passed.Add(1)
		return t.base.RoundTrip(req)
	}
	r := t.rules[ri]
	k := r.n.Add(1) - 1

	var truncate, corrupt bool
	for fi, f := range r.faults {
		if !t.decide(ri, k, fi) {
			continue
		}
		switch f.kind {
		case KindLatency:
			t.delays.Add(1)
			if !sleepCtx(req, f.delay) {
				closeBody(req)
				return nil, req.Context().Err()
			}
		case KindErr:
			t.errors.Add(1)
			closeBody(req)
			return nil, &injectedError{path: req.URL.Path}
		case KindCode:
			t.codes.Add(1)
			closeBody(req)
			return stubResponse(req, f.code), nil
		case KindTruncate:
			truncate = true
		case KindCorrupt:
			corrupt = true
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if !truncate && !corrupt {
		return resp, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		body = nil
	}
	if truncate {
		t.truncates.Add(1)
		body = body[:len(body)/2]
	}
	if corrupt && len(body) > 0 {
		t.corrupts.Add(1)
		// NULs are illegal anywhere in a JSON document, so the decoder
		// always rejects the result — detectable damage only.
		start := int(mix(t.seed, uint64(ri), uint64(k), 0xC0) % uint64(len(body)))
		for i := start; i < len(body) && i < start+16; i++ {
			body[i] = 0
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// sleepCtx waits d or until the request's context ends; reports whether
// the full delay elapsed.
func sleepCtx(req *http.Request, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-req.Context().Done():
		return false
	}
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// stubResponse fabricates a status-only reply for KindCode without
// touching the network.
func stubResponse(req *http.Request, code int) *http.Response {
	body := fmt.Sprintf("{\"error\":\"faults: injected %d\"}", code)
	return &http.Response{
		Status:        http.StatusText(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
