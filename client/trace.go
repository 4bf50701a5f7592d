package client

// Request tracing. Every request this client issues carries a
// Tasm-Trace-Id header: the id from the caller's context when one was
// installed with WithTraceID, otherwise an id minted per logical
// operation (retried attempts reuse it, so the server's trace ring
// keeps one record per operation). Daemons echo the id on the response
// and index the finished request's span timeline under it — TraceID on
// a cursor plus TraceContext turn a slow stream into a stage-by-stage
// timing breakdown without touching server logs.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"

	"github.com/tasm-repro/tasm/internal/obs"
)

// NewTraceID mints a fresh 128-bit trace id (32 hex characters).
func NewTraceID() string { return obs.NewTraceID() }

// WithTraceID returns a context whose requests carry the given trace
// id, correlating every hop (router, shards, cursor pipeline) under
// one id the caller chose. Invalid ids (empty, >64 chars, characters
// outside [0-9a-zA-Z_-]) are ignored and a fresh id is minted per
// operation instead.
func WithTraceID(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(id))
}

// traceID resolves one logical operation's trace id: the context's if
// valid, else freshly minted.
func traceID(ctx context.Context) string {
	if id := obs.FromContext(ctx).ID(); obs.ValidTraceID(id) {
		return id
	}
	return obs.NewTraceID()
}

// TraceContext fetches the span timeline of a finished request from
// the daemon's trace ring (GET /v1/trace/{id}). The result is the
// daemon's JSON trace record, returned raw so callers can render or
// store it without this package freezing the record's schema. A miss
// (the ring holds only recent requests) is ErrTraceNotFound, matchable
// with errors.Is.
func (c *Client) TraceContext(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/trace/"+url.PathEscape(id), nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}
