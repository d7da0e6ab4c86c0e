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
// the worker's view of its coordinator's cache in a distributed sweep, and
// a coordinator's view of a federated peer's cache. GET
// {base}/v1/cache/{key} peeks, PUT {base}/v1/cache/{key} fills; both carry
// the value as JSON. It satisfies Getter[V], so anything that takes a
// local store (the experiment runner's JobCache, a Flight wrapper) takes a
// Remote unchanged.
//
// Failure degrades, never breaks: a network error or non-200 peek is a
// miss, a failed fill is dropped. Determinism makes that safe — a missed
// peek only costs a re-simulation that produces identical bytes.
//
// Two layers of API reflect the two callers. Get/Put (and their Ctx
// forms) are the degrading convenience surface: transient transport
// failures are retried on the client's resilience policy, then reported
// as a miss. Probe/Fill are the single-attempt surface the federation
// layer drives its circuit breakers with — they distinguish "the peer
// answered: miss" (nil error) from "transport-level failure" (non-nil),
// which is exactly the signal a breaker needs and the convenience
// surface hides.
//
// Values round-trip through encoding/json, which is exact for the metric
// types in use (Go emits the shortest float representation that decodes
// back to the same float64), so a remotely cached result is byte-identical
// to a locally computed one when re-encoded.
type Remote[V any] struct {
	base   string
	client *http.Client
	header http.Header // extra headers on every request (e.g. peer marking)
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

func (r *Remote[V]) keyURL(key string) string {
	return r.base + "/v1/cache/" + url.PathEscape(key)
}

// Get peeks the remote store. Any failure — transport, status, decode —
// reports a miss.
func (r *Remote[V]) Get(key string) (V, bool) {
	v, ok, _ := r.GetCtx(context.Background(), key)
	return v, ok
}

// GetCtx is Get bounded by ctx, mirroring Flight.GetCtx's shape: a
// caller that is shutting down abandons the peek immediately instead of
// riding out the client's full timeout. Transient transport failures are
// retried on the client's policy, then reported as a miss. The error is
// non-nil only for ctx's own end — every remote failure is still just a
// miss.
func (r *Remote[V]) GetCtx(ctx context.Context, key string) (V, bool, error) {
	var v V
	var hit bool
	err := r.policy.Do(ctx, func(actx context.Context) error {
		got, ok, err := r.Probe(actx, key)
		if err != nil {
			if ctx.Err() != nil {
				return resilience.Permanent(ctx.Err())
			}
			return err
		}
		v, hit = got, ok
		return nil
	})
	if err != nil {
		var zero V
		if ctx.Err() != nil {
			return zero, false, ctx.Err()
		}
		return zero, false, nil
	}
	return v, hit, nil
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

// Put fills the remote store; failures are dropped.
func (r *Remote[V]) Put(key string, v V) {
	r.PutCtx(context.Background(), key, v)
}

// PutCtx is Put bounded by ctx: a draining process drops the fill
// instantly rather than blocking shutdown on cache traffic. Transient
// failures retry on the client's policy, then drop. Fills are an
// optimization — losing one costs a future re-simulation, nothing else.
func (r *Remote[V]) PutCtx(ctx context.Context, key string, v V) {
	if ctx.Err() != nil {
		return
	}
	r.policy.Do(ctx, func(actx context.Context) error {
		err := r.Fill(actx, key, v)
		if err != nil && ctx.Err() != nil {
			return resilience.Permanent(ctx.Err())
		}
		return err
	})
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
