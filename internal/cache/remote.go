package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/resilience"
)

// Remote is an HTTP client for another process's content-addressed store —
// a worker's view of its coordinator's checkpoint store in a distributed
// sweep, and a coordinator's view of a federated peer's cache. GET
// {base}/v1/cache/{key} peeks, PUT {base}/v1/cache/{key} fills; both carry
// the value as JSON. It satisfies Getter[V], so anything that takes a
// local store (the experiment runner's JobCache, a Flight wrapper) takes a
// Remote unchanged.
//
// Failure degrades, never breaks: a network error or non-200 peek is a
// miss, a failed fill is dropped. Determinism makes that safe — a missed
// peek only costs a re-simulation that produces identical bytes.
//
// Two layers of API reflect the two callers. Get/Put are the degrading
// convenience surface, bounded by the client's context (see WithContext):
// transient transport failures are retried on the client's resilience
// policy, then reported as a miss. Probe/Fill are the single-attempt
// surface the federation layer drives its circuit breakers with — they
// distinguish "the peer answered: miss" (nil error) from "transport-level
// failure" (non-nil), which is exactly the signal a breaker needs and the
// convenience surface hides.
//
// Values round-trip through encoding/json, which is exact for the metric
// types in use (Go emits the shortest float representation that decodes
// back to the same float64), so a remotely cached result is byte-identical
// to a locally computed one when re-encoded.
type Remote[V any] struct {
	base   string
	client *http.Client
	header http.Header     // extra headers on every request (e.g. peer marking)
	ctx    context.Context // bounds Get and Put; see WithContext
	policy resilience.Policy
}

// NewRemote builds a remote cache client against base (scheme://host:port,
// with or without a trailing slash). A nil client gets a dedicated one
// with a conservative timeout — cache traffic must never wedge a worker.
func NewRemote[V any](base string, client *http.Client) *Remote[V] {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Remote[V]{
		base:   strings.TrimRight(base, "/"),
		client: client,
		ctx:    context.Background(),
		// One retry by default: enough to ride out a dropped connection
		// without turning a genuinely down server into a long stall —
		// remote failures are only ever worth a fraction of the
		// re-simulation they save.
		policy: resilience.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: 500 * time.Millisecond},
	}
}

// WithHeader returns the client with an extra header set on every request
// it issues. Federation uses it to mark peer-originated traffic so the
// receiving coordinator answers from its local tiers only (single-hop
// loop protection).
func (r *Remote[V]) WithHeader(key, value string) *Remote[V] {
	if r.header == nil {
		r.header = http.Header{}
	}
	r.header.Set(key, value)
	return r
}

// WithContext returns the client with every Get and Put bound by ctx:
// once ctx ends, a peek in flight aborts to a miss and a fill is dropped
// before it reaches the wire. A worker binds its checkpoint store to its
// run context this way, so a drain never waits out the client timeout on
// cache traffic.
func (r *Remote[V]) WithContext(ctx context.Context) *Remote[V] {
	r.ctx = ctx
	return r
}

func (r *Remote[V]) keyURL(key string) string {
	return r.base + "/v1/cache/" + url.PathEscape(key)
}

// Get peeks the remote store. Transient transport failures are retried
// on the client's policy; any failure — transport, status, decode, the
// client's context ending — reports a miss.
func (r *Remote[V]) Get(key string) (V, bool) {
	var v V
	var hit bool
	r.policy.Do(r.ctx, func(ctx context.Context) error {
		got, ok, err := r.Probe(ctx, key)
		v, hit = got, ok
		return err
	})
	return v, hit
}

// Probe makes exactly one peek attempt and reports how it ended: (v,
// true, nil) for a hit, (zero, false, nil) when the server answered with
// a definitive miss, and a non-nil error for transport-level failures —
// connect errors, timeouts, 5xx answers, garbled bodies. The federation
// layer feeds that distinction to its per-peer circuit breakers; a clean
// miss proves the peer alive, only transport failures count against it.
func (r *Remote[V]) Probe(ctx context.Context, key string) (V, bool, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.keyURL(key), nil)
	if err != nil {
		return zero, false, err
	}
	r.decorate(req)
	resp, err := r.client.Do(req)
	if err != nil {
		return zero, false, err
	}
	defer drain(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		var v V
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return zero, false, fmt.Errorf("cache: decode peek of %q: %w", key, err)
		}
		return v, true, nil
	case resp.StatusCode >= http.StatusInternalServerError:
		return zero, false, fmt.Errorf("cache: peek of %q answered %d", key, resp.StatusCode)
	default:
		return zero, false, nil // the server spoke: a real miss
	}
}

// Put fills the remote store. Transient failures retry on the client's
// policy, then drop, as does a fill under an ended context. Fills are an
// optimization — losing one costs a future re-simulation, nothing else.
func (r *Remote[V]) Put(key string, v V) {
	r.policy.Do(r.ctx, func(ctx context.Context) error { return r.Fill(ctx, key, v) })
}

// Fill makes exactly one fill attempt and reports whether the server
// accepted it — the success signal Federated's fill counters and
// breakers need: only a fill that landed counts. Any non-2xx answer is an
// error: a fill the server rejected did not fill anything.
func (r *Remote[V]) Fill(ctx context.Context, key string, v V) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.keyURL(key), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	r.decorate(req)
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	drain(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cache: fill of %q answered %d", key, resp.StatusCode)
	}
	return nil
}

// decorate applies the client's standing headers to one request.
func (r *Remote[V]) decorate(req *http.Request) {
	for k, vs := range r.header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
}

// drain consumes and closes a response body so the transport can reuse
// the connection.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}
