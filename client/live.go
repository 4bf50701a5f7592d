package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// ---- live ingest ----
//
// The append-mode surface mirrors the StorageManager's:
// CreateLiveContext opens an open-ended video, AppendContext pushes
// frames a batch at a time (each completed GOP committing atomically
// server-side), Subscribe tails committed frames as they land,
// SealContext converts live → batch.
// Append failures wrapping tasm.ErrIngestBackpressure mean the video's
// commit queue was full and nothing was written — Retryable reports
// true and WithRetry backs off per the server's Retry-After.

// CreateLiveContext opens an append-mode video on the daemon. pol (optional)
// bounds retained history.
func (c *Client) CreateLiveContext(ctx context.Context, video string, w, h, fps int, pol *tasm.RetentionPolicy) error {
	req := rpcwire.CreateLiveRequest{Video: video, W: w, H: h, FPS: fps, Retention: pol}
	return c.do(ctx, http.MethodPost, "/v1/live", req, nil)
}

// AppendContext uploads frames onto the end of a live video. With
// WithEncoding(Binary) the body is the v2 TASMFRM2 framing — raw pixel
// planes, no base64 — which is the form a sustained camera feed should
// use; otherwise it falls back to the JSON AppendRequest. Either way
// the server chunks the frames into GOP-length SOTs, each visible to
// subscribers atomically at its commit.
func (c *Client) AppendContext(ctx context.Context, video string, frames []*tasm.Frame) (tasm.AppendStats, error) {
	var st tasm.AppendStats
	if c.enc == Binary {
		var buf bytes.Buffer
		fw := rpcwire.NewFrameStreamWriter(&buf)
		for i, f := range frames {
			line := rpcwire.StreamLine{Frame: &rpcwire.FrameLine{Index: i, Pixels: rpcwire.FromFrame(f)}}
			if err := fw.WriteLine(line); err != nil {
				return tasm.AppendStats{}, fmt.Errorf("client: framing append body: %w", err)
			}
		}
		if err := fw.Flush(); err != nil {
			return tasm.AppendStats{}, fmt.Errorf("client: framing append body: %w", err)
		}
		path := "/v1/append?video=" + url.QueryEscape(video)
		err := c.send(ctx, http.MethodPost, path, rpcwire.ContentTypeBinary, buf.Bytes(), &st)
		return st, err
	}
	req := rpcwire.AppendRequest{Video: video, Frames: make([]rpcwire.Frame, len(frames))}
	for i, f := range frames {
		req.Frames[i] = rpcwire.FromFrame(f)
	}
	err := c.do(ctx, http.MethodPost, "/v1/append", req, &st)
	return st, err
}

// SealContext converts a live video into an ordinary batch video; appends
// after it fail with tasm.ErrVideoSealed and caught-up subscribers
// terminate cleanly.
func (c *Client) SealContext(ctx context.Context, video string) error {
	return c.do(ctx, http.MethodPost, "/v1/seal", rpcwire.SealRequest{Video: video}, nil)
}

// SetRetentionContext replaces a live video's retention policy (nil clears
// it), returning what the immediate application trimmed.
func (c *Client) SetRetentionContext(ctx context.Context, video string, pol *tasm.RetentionPolicy) (tasm.TrimReport, error) {
	var rep tasm.TrimReport
	err := c.do(ctx, http.MethodPost, "/v1/retention", rpcwire.RetentionRequest{Video: video, Retention: pol}, &rep)
	return rep, err
}

// Subscribe opens a live tail on video from frame from (the resume
// watermark — pass the last Result().Index + 1 to continue a dropped
// subscription without gaps or repeats). The cursor blocks in Next
// while caught up and yields each newly committed frame as appends
// land; on a sealed video it drains the remainder and ends cleanly.
// Cancel ctx or Close to stop. Works in either stream framing, against
// tasmd directly or through tasm-router.
func (c *Client) Subscribe(ctx context.Context, video string, from int) (*FrameCursor, error) {
	q := url.Values{}
	q.Set("video", video)
	q.Set("from", strconv.Itoa(from))
	s, err := c.openStream(ctx, http.MethodGet, "/v1/subscribe?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	return &FrameCursor{s: s}, nil
}
