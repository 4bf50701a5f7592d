// Package api is TASM's one HTTP surface: a single route table,
// middleware stack and handler set (handler.go) written against the
// Backend interface below, so the same code serves a local store
// (tasmd: internal/server), a sharded fleet (tasm-router:
// internal/shard) or an in-memory fake in tests. Distribution sits
// behind the interface; the wire — status codes, envelopes, stream
// framing, metric and span names — is decided here once.
package api

import (
	"context"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// Cursor is the pull-based stream every Backend read returns, the shape
// local tasm cursors, remote client cursors and the frame-order merge
// share: results arrive in non-decreasing frame order, Err is sticky
// and meaningful only after Next returns false, Stats is complete once
// the cursor is exhausted, and Close is idempotent and releases
// whatever the cursor holds.
type Cursor[T any] interface {
	Next() bool
	Result() T
	Err() error
	Stats() tasm.ScanStats
	Close() error
}

// Backend is the context-first storage-manager surface the handlers
// drive — the method set *client.Client already has, so what a caller
// can ask a remote daemon is exactly what a daemon asks its backend.
// Every method honours ctx: a cancelled or expired context fails the
// call (wrapping ctx.Err()) before it mutates anything.
type Backend interface {
	VideosContext(ctx context.Context) ([]string, error)
	VideoInfoContext(ctx context.Context, video string) (tasm.VideoMeta, int64, []string, error)
	DeleteVideoContext(ctx context.Context, video string) error

	IngestContext(ctx context.Context, video string, frames []*tasm.Frame, fps int) (tasm.IngestStats, error)
	IngestTiledContext(ctx context.Context, video string, frames []*tasm.Frame, fps int, layouts []tasm.Layout) (tasm.IngestStats, error)
	CreateLiveContext(ctx context.Context, video string, w, h, fps int, pol *tasm.RetentionPolicy) error
	AppendContext(ctx context.Context, video string, frames []*tasm.Frame) (tasm.AppendStats, error)
	SealContext(ctx context.Context, video string) error
	SetRetentionContext(ctx context.Context, video string, pol *tasm.RetentionPolicy) (tasm.TrimReport, error)

	AddDetectionsContext(ctx context.Context, video string, ds []tasm.Detection) error
	MarkDetectedContext(ctx context.Context, video, label string, from, to int) error
	LookupDetectionsContext(ctx context.Context, video, label string, from, to int) ([]tasm.Detection, error)

	// ScanCursor serves multi-video queries too: the backend scatters
	// one cursor per video and gathers them in frame order.
	ScanCursor(ctx context.Context, q tasm.Query) (Cursor[tasm.RegionResult], error)
	DecodeFramesCursor(ctx context.Context, video string, from, to int) (Cursor[tasm.FrameResult], error)
	Subscribe(ctx context.Context, video string, from int) (Cursor[tasm.FrameResult], error)

	DesignLayoutContext(ctx context.Context, video string, sotID int, labels []string) (tasm.Layout, error)
	RetileSOTContext(ctx context.Context, video string, sotID int, l tasm.Layout) (tasm.RetileStats, error)

	GCContext(ctx context.Context) (tasm.GCReport, error)
	FSCKContext(ctx context.Context) (tasm.FsckReport, error)
	RepairStoreContext(ctx context.Context) (tasm.RepairReport, error)
	// StatsContext is GET /v1/stats: totals inline, plus the per-shard
	// breakdown when the backend is a fleet.
	StatsContext(ctx context.Context) (rpcwire.ShardedCacheStats, error)

	AutotileStatusContext(ctx context.Context) (tasm.AutotileStatus, error)
	AutotilePauseContext(ctx context.Context, reason string) error
	AutotileResumeContext(ctx context.Context) error
}

// Lift returns a concrete cursor as the interface the Backend methods
// promise, keeping a failed open's nil untyped.
func Lift[T any, C Cursor[T]](cur C, err error) (Cursor[T], error) {
	if err != nil {
		return nil, err
	}
	return cur, nil
}
