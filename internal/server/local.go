package server

import (
	"context"
	"fmt"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/shard"
)

// Local is the api.Backend over an in-process storage manager: what
// tasmd serves, and what tasmctl drives without -addr. The manager's
// own context forms (ingest, append, re-tile, store repair) are
// promoted as they are; its fast context-free operations honor the
// context at their start boundary — an already-cancelled or expired
// request is answered with its context error instead of doing the work
// for a caller that is gone.
type Local struct{ *tasm.StorageManager }

var _ api.Backend = Local{}

// alive is that start boundary.
func alive(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

func (l Local) VideosContext(ctx context.Context) ([]string, error) {
	if err := alive(ctx); err != nil {
		return nil, err
	}
	return l.Videos()
}

// VideoInfoContext returns meta, byte footprint and labels in one call
// (one HTTP round trip and one byte walk per video when served).
func (l Local) VideoInfoContext(ctx context.Context, video string) (tasm.VideoMeta, int64, []string, error) {
	if err := alive(ctx); err != nil {
		return tasm.VideoMeta{}, 0, nil, err
	}
	meta, err := l.Meta(video)
	if err != nil {
		return tasm.VideoMeta{}, 0, nil, err
	}
	bytes, err := l.VideoBytes(video)
	if err != nil {
		return tasm.VideoMeta{}, 0, nil, err
	}
	labels, err := l.Labels(video)
	return meta, bytes, labels, err
}

func (l Local) DeleteVideoContext(ctx context.Context, video string) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.DeleteVideo(video)
}

func (l Local) CreateLiveContext(ctx context.Context, video string, w, h, fps int, pol *tasm.RetentionPolicy) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.CreateLiveVideo(video, w, h, fps, pol)
}

func (l Local) AppendContext(ctx context.Context, video string, frames []*tasm.Frame) (tasm.AppendStats, error) {
	return l.AppendGOPContext(ctx, video, frames)
}

func (l Local) SealContext(ctx context.Context, video string) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.SealVideo(video)
}

func (l Local) SetRetentionContext(ctx context.Context, video string, pol *tasm.RetentionPolicy) (tasm.TrimReport, error) {
	if err := alive(ctx); err != nil {
		return tasm.TrimReport{}, err
	}
	return l.SetRetention(video, pol)
}

func (l Local) AddDetectionsContext(ctx context.Context, video string, ds []tasm.Detection) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.AddDetections(video, ds)
}

func (l Local) MarkDetectedContext(ctx context.Context, video, label string, from, to int) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.MarkDetected(video, label, from, to)
}

func (l Local) LookupDetectionsContext(ctx context.Context, video, label string, from, to int) ([]tasm.Detection, error) {
	if err := alive(ctx); err != nil {
		return nil, err
	}
	return l.LookupDetections(video, label, from, to)
}

// ScanCursor scatters a multi-video query locally: one engine cursor
// per video, gathered by the same merge the router runs over remote
// cursors.
func (l Local) ScanCursor(ctx context.Context, q tasm.Query) (api.Cursor[tasm.RegionResult], error) {
	return shard.ScatterScan(q, func(sq tasm.Query) (shard.Source[tasm.RegionResult], error) {
		return api.Lift[tasm.RegionResult](l.StorageManager.ScanCursor(ctx, sq))
	})
}

func (l Local) DecodeFramesCursor(ctx context.Context, video string, from, to int) (api.Cursor[tasm.FrameResult], error) {
	return api.Lift[tasm.FrameResult](l.StorageManager.DecodeFramesCursor(ctx, video, from, to))
}

func (l Local) Subscribe(ctx context.Context, video string, from int) (api.Cursor[tasm.FrameResult], error) {
	return api.Lift[tasm.FrameResult](l.StorageManager.Subscribe(ctx, video, from))
}

func (l Local) DesignLayoutContext(ctx context.Context, video string, sotID int, labels []string) (tasm.Layout, error) {
	if err := alive(ctx); err != nil {
		return tasm.Layout{}, err
	}
	return l.DesignLayout(video, sotID, labels)
}

// GCContext: the sweep itself is atomic under the store lock; a
// cancellation that arrived before it started stops it from starting.
func (l Local) GCContext(ctx context.Context) (tasm.GCReport, error) {
	if err := alive(ctx); err != nil {
		return tasm.GCReport{}, err
	}
	return l.GC()
}

func (l Local) FSCKContext(ctx context.Context) (tasm.FsckReport, error) {
	if err := alive(ctx); err != nil {
		return tasm.FsckReport{}, err
	}
	return l.FSCK()
}

func (l Local) StatsContext(ctx context.Context) (rpcwire.ShardedCacheStats, error) {
	if err := alive(ctx); err != nil {
		return rpcwire.ShardedCacheStats{}, err
	}
	return rpcwire.ShardedCacheStats{Stats: l.CacheStats()}, nil
}

func (l Local) AutotileStatusContext(ctx context.Context) (tasm.AutotileStatus, error) {
	if err := alive(ctx); err != nil {
		return tasm.AutotileStatus{}, err
	}
	return l.AutotileStatus(), nil
}

func (l Local) AutotilePauseContext(ctx context.Context, reason string) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.AutotilePause(reason)
}

func (l Local) AutotileResumeContext(ctx context.Context) error {
	if err := alive(ctx); err != nil {
		return err
	}
	return l.AutotileResume()
}
