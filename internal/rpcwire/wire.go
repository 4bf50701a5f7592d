// Package rpcwire defines the versioned JSON wire format the tasmd
// network front end speaks: request and response bodies for the unary
// endpoints, the NDJSON line envelope the streaming endpoints emit, and
// the canonical error envelope with its bidirectional mapping between
// the tasmerr sentinel taxonomy and HTTP status + machine-readable code.
//
// A type is declared once: a wire struct exists here only where the
// wire differs from the in-process type. Stats, reports, detections,
// rectangles, retention policies and the autotile status travel as the
// storage manager's own types, whose JSON tags are the wire contract
// (durations are integer nanoseconds under *_ns keys) — so a new stats
// counter is two edits, the tagged field and ScanStats.Add, and it
// cannot read zero remotely. The mirrors that remain each differ from
// their in-process twin:
//
//   - Layout: the manifest and the tiles.json sidecar spell
//     layout.Layout RowHeights/ColWidths on disk; the wire spells it
//     row_heights/col_widths. Tagging layout.Layout would change the
//     on-disk format.
//   - Frame: ToFrame validates plane sizes arriving from outside the
//     program (Region and FrameLine carry a Frame).
//   - Query: flattens Pred.Clauses and enforces Video == Videos[0].
//   - the request/response envelopes, ErrorBody and the Shard* types,
//     which have no in-process twin.
//
// The format is versioned by URL prefix (/v1/); additive changes (new
// optional fields, new codes) do not bump the version.
//
// Error contract: a failed unary request carries `{"error": {"code",
// "message"}}` with the mapped HTTP status; a streaming request that
// fails after the 200 header carries the same envelope as its final
// NDJSON line. DecodeError reconstructs an error that wraps the exact
// sentinel EncodeError classified, so errors.Is behaves identically
// in-process and across the wire.
package rpcwire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tasmerr"
	"github.com/tasm-repro/tasm/internal/tilecache"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// Serving-layer sentinels: failures that originate at the network
// boundary rather than in the storage manager, given the same errors.Is
// treatment as the tasmerr taxonomy.
var (
	// ErrBadRequest reports a request the server could not interpret:
	// malformed JSON, an unparseable SQL string, an invalid header.
	ErrBadRequest = errors.New("bad request")

	// ErrOverloaded reports that the server's concurrent-request limit
	// (global, or the caller's tenant quota) was reached; the request
	// was rejected before any work started and is safe to retry. The
	// response carries a Retry-After header; the client surfaces it via
	// RemoteError.RetryAfter.
	ErrOverloaded = errors.New("server overloaded")

	// ErrUnauthorized reports a request a token-protected daemon
	// refused: no Authorization header, or a bearer token outside the
	// tenant table. Retrying without new credentials cannot succeed.
	ErrUnauthorized = errors.New("unauthorized")

	// ErrTraceNotFound reports a /v1/trace/{id} lookup for an id no
	// longer (or never) in the daemon's trace ring. The ring holds the
	// most recent finished requests only, so a miss is expected
	// operational behavior, not a bug.
	ErrTraceNotFound = errors.New("trace not found")
)

// ErrorBody is the canonical error envelope.
type ErrorBody struct {
	// Code is the machine-readable failure class, stable across
	// releases (the strings in the mapping table below).
	Code string `json:"code"`
	// Message is the full operator-facing error text from the server.
	Message string `json:"message"`
}

// errorMapping is one row of the bidirectional sentinel ⇄ (status, code)
// table. Codes are unique; statuses may repeat (e.g. both invalid_name
// and invalid_range are 400), so decoding keys on the code.
type errorMapping struct {
	sentinel error
	code     string
	status   int
}

// wireErrors is the canonical mapping. Order matters for EncodeError:
// the first sentinel errors.Is matches wins, so the storage-manager
// taxonomy precedes the context errors (a scan cancelled mid-decode
// wraps both ErrCursorClosed and context.Canceled — the more specific
// classification is kept).
var wireErrors = []errorMapping{
	{tasmerr.ErrVideoNotFound, "video_not_found", http.StatusNotFound},
	{tasmerr.ErrSOTNotFound, "sot_not_found", http.StatusNotFound},
	{tasmerr.ErrVideoExists, "video_exists", http.StatusConflict},
	{tasmerr.ErrRetileConflict, "retile_conflict", http.StatusConflict},
	{tasmerr.ErrVideoDeleted, "video_deleted", http.StatusGone},
	{tasmerr.ErrInvalidName, "invalid_name", http.StatusBadRequest},
	{tasmerr.ErrInvalidRange, "invalid_range", http.StatusBadRequest},
	{tasmerr.ErrNoFrames, "no_frames", http.StatusBadRequest},
	{tasmerr.ErrAutotileDisabled, "autotile_disabled", http.StatusBadRequest},
	{tasmerr.ErrVideoSealed, "video_sealed", http.StatusConflict},
	// 429: the append did no work and is safe to retry after the
	// Retry-After the server attaches — the one storage sentinel the
	// client treats as retryable.
	{tasmerr.ErrIngestBackpressure, "ingest_backpressure", http.StatusTooManyRequests},
	{tasmerr.ErrCursorClosed, "cursor_closed", statusClientClosedRequest},
	{tasmerr.ErrStoreLocked, "store_locked", http.StatusConflict},
	{tasmerr.ErrTileCorrupt, "tile_corrupt", http.StatusInternalServerError},
	// 502, not 503: overloaded means "this server is alive, back off and
	// retry"; shard_unavailable means a router could not reach the data
	// plane at all — retrying against the same dead shard cannot help.
	{tasmerr.ErrShardUnavailable, "shard_unavailable", http.StatusBadGateway},
	{ErrBadRequest, "bad_request", http.StatusBadRequest},
	{ErrTraceNotFound, "trace_not_found", http.StatusNotFound},
	{ErrUnauthorized, "unauthorized", http.StatusUnauthorized},
	{ErrOverloaded, "overloaded", http.StatusServiceUnavailable},
	{context.Canceled, "canceled", statusClientClosedRequest},
	{context.DeadlineExceeded, "deadline_exceeded", http.StatusGatewayTimeout},
}

// statusClientClosedRequest is nginx's convention for "the client went
// away"; there is no standard HTTP status for it.
const statusClientClosedRequest = 499

// codeInternal classifies errors outside the taxonomy (bugs, I/O
// failures). It decodes to a *RemoteError with no sentinel.
const codeInternal = "internal"

// EncodeError maps an error to the HTTP status and envelope to send.
// Unknown errors become ("internal", 500) with the message preserved.
func EncodeError(err error) (int, ErrorBody) {
	for _, m := range wireErrors {
		if errors.Is(err, m.sentinel) {
			return m.status, ErrorBody{Code: m.code, Message: err.Error()}
		}
	}
	return http.StatusInternalServerError, ErrorBody{Code: codeInternal, Message: err.Error()}
}

// RemoteError is a server failure reconstructed client-side: it keeps
// the wire code and the server's message, and unwraps to the sentinel
// the code names, so errors.Is(err, tasm.ErrVideoNotFound) (or
// context.DeadlineExceeded, …) holds for remote failures exactly as it
// does in-process.
type RemoteError struct {
	Code    string
	Message string
	// RetryAfter is the server's requested backoff before retrying
	// (from the Retry-After header on limiter rejections); zero when
	// the server named none.
	RetryAfter time.Duration
	sentinel   error // nil for codes outside the taxonomy
}

func (e *RemoteError) Error() string { return "remote: " + e.Message }

func (e *RemoteError) Unwrap() error { return e.sentinel }

// DecodeError reconstructs the error a wire envelope describes. The
// result always has type *RemoteError; when the code is in the mapping
// table it additionally wraps that sentinel.
func DecodeError(body ErrorBody) error {
	e := &RemoteError{Code: body.Code, Message: body.Message}
	for _, m := range wireErrors {
		if m.code == body.Code {
			e.sentinel = m.sentinel
			break
		}
	}
	return e
}

// Sentinels returns every error in the bidirectional mapping (the
// round-trip test iterates it so a sentinel added to the table can
// never silently lose its mapping).
func Sentinels() []error {
	out := make([]error, len(wireErrors))
	for i, m := range wireErrors {
		out[i] = m.sentinel
	}
	return out
}

// DeadlineHeader carries the client's remaining budget in integer
// milliseconds; the server turns it into a context deadline so a remote
// request honors the caller's timeout even when the TCP stream stays
// healthy.
const DeadlineHeader = "Tasm-Deadline-Ms"

// NegotiateStreamEncoding picks the stream framing for a request:
// ContentTypeBinary when the Accept header lists it (q-parameters are
// ignored — listing it at all means the client can decode it) or when
// Tasm-Api-Version selects v2; ContentTypeNDJSON otherwise, so a bare
// curl keeps getting line-delimited JSON.
func NegotiateStreamEncoding(r *http.Request) string {
	if r.Header.Get(APIVersionHeader) == APIVersionBinary {
		return ContentTypeBinary
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mediaType), ContentTypeBinary) {
			return ContentTypeBinary
		}
	}
	return ContentTypeNDJSON
}

// ---- layouts, frames ----

// Layout is a tile layout on the wire: row heights and column widths
// spanning the frame.
type Layout struct {
	RowHeights []int `json:"row_heights"`
	ColWidths  []int `json:"col_widths"`
}

// FromLayout converts an in-process layout.
func FromLayout(l layout.Layout) Layout {
	return Layout{RowHeights: l.RowHeights, ColWidths: l.ColWidths}
}

// ToLayout converts back to the in-process type.
func (l Layout) ToLayout() layout.Layout {
	return layout.Layout{RowHeights: l.RowHeights, ColWidths: l.ColWidths}
}

// Frame is a planar YCbCr 4:2:0 frame on the wire; the planes travel
// base64-encoded (encoding/json's []byte representation).
type Frame struct {
	W  int    `json:"w"`
	H  int    `json:"h"`
	Y  []byte `json:"y"`
	Cb []byte `json:"cb"`
	Cr []byte `json:"cr"`
}

// FromFrame converts an in-process frame. The planes are referenced,
// not copied: wire values are encoded immediately, never mutated.
func FromFrame(f *frame.Frame) Frame {
	return Frame{W: f.W, H: f.H, Y: f.Y, Cb: f.Cb, Cr: f.Cr}
}

// ToFrame validates plane sizes against the declared dimensions and
// converts back to the in-process type.
func (f Frame) ToFrame() (*frame.Frame, error) {
	if f.W <= 0 || f.H <= 0 || f.W%2 != 0 || f.H%2 != 0 {
		return nil, fmt.Errorf("%w: frame dimensions %dx%d", ErrBadRequest, f.W, f.H)
	}
	if len(f.Y) != f.W*f.H || len(f.Cb) != (f.W/2)*(f.H/2) || len(f.Cr) != (f.W/2)*(f.H/2) {
		return nil, fmt.Errorf("%w: frame plane sizes do not match %dx%d", ErrBadRequest, f.W, f.H)
	}
	return &frame.Frame{W: f.W, H: f.H, Y: f.Y, Cb: f.Cb, Cr: f.Cr}, nil
}

// ---- queries ----

// Query is a parsed Scan request on the wire.
type Query struct {
	Video string `json:"video"`
	// Videos carries the full target list of a multi-video query
	// ("FROM a,b"); empty for the ordinary single-video case, where
	// Video alone names the target. When set, Video == Videos[0].
	Videos []string `json:"videos,omitempty"`
	// Clauses is the CNF label predicate: OR within a clause, AND
	// between clauses.
	Clauses [][]string `json:"clauses"`
	From    int        `json:"from"`
	// To is exclusive; -1 means "to the end of the video".
	To int `json:"to"`
}

// FromQuery converts an in-process query.
func FromQuery(q query.Query) Query {
	return Query{Video: q.Video, Videos: q.Videos, Clauses: q.Pred.Clauses, From: q.From, To: q.To}
}

// ToQuery converts back to the in-process type.
func (q Query) ToQuery() query.Query {
	out := query.Query{Video: q.Video, Videos: q.Videos, Pred: query.Predicate{Clauses: q.Clauses}, From: q.From, To: q.To}
	if len(out.Videos) > 0 {
		out.Video = out.Videos[0]
	}
	return out
}

// ---- unary requests and responses ----

// IngestRequest stores frames as a new video. Layouts, when present,
// select the tiled ingest path (one layout per SOT, the edge-camera
// upload shape); otherwise the video is stored untiled, one SOT per GOP.
type IngestRequest struct {
	Video   string   `json:"video"`
	FPS     int      `json:"fps"`
	Frames  []Frame  `json:"frames"`
	Layouts []Layout `json:"layouts,omitempty"`
}

// ---- live ingest ----

// CreateLiveRequest opens an append-mode video.
type CreateLiveRequest struct {
	Video     string                     `json:"video"`
	W         int                        `json:"w"`
	H         int                        `json:"h"`
	FPS       int                        `json:"fps"`
	Retention *tilestore.RetentionPolicy `json:"retention,omitempty"`
}

// AppendRequest appends frames to a live video — the v1 JSON body of
// POST /v1/append. The preferred v2 form sends the same frames as a
// binary TASMFRM2 stream ('F' records) with the video named by the
// ?video= query parameter, avoiding the base64 tax on exactly the
// bytes ingest moves the most of.
type AppendRequest struct {
	Video  string  `json:"video"`
	Frames []Frame `json:"frames"`
}

// SealRequest converts a live video into a normal batch one.
type SealRequest struct {
	Video string `json:"video"`
}

// RetentionRequest installs (or with a nil policy clears) a live
// video's retention policy; the response is the TrimReport of the
// immediate application.
type RetentionRequest struct {
	Video     string                     `json:"video"`
	Retention *tilestore.RetentionPolicy `json:"retention"`
}

// RetileRequest re-encodes one SOT under a new layout.
type RetileRequest struct {
	Video  string `json:"video"`
	SOT    int    `json:"sot"`
	Layout Layout `json:"layout"`
}

// DesignLayoutRequest asks the server to partition a SOT around the
// indexed boxes of the given labels.
type DesignLayoutRequest struct {
	Video  string   `json:"video"`
	SOT    int      `json:"sot"`
	Labels []string `json:"labels"`
}

// DesignLayoutResponse carries the designed layout (the untiled layout
// when tiling cannot help).
type DesignLayoutResponse struct {
	Layout Layout `json:"layout"`
}

// MetadataRequest records a batch of detections (AddMetadata sends one).
type MetadataRequest struct {
	Video      string               `json:"video"`
	Detections []semindex.Detection `json:"detections"`
}

// MarkDetectedRequest records that frames [From, To) were fully
// processed by a detector for Label.
type MarkDetectedRequest struct {
	Video string `json:"video"`
	Label string `json:"label"`
	From  int    `json:"from"`
	To    int    `json:"to"`
}

// DetectionsResponse carries indexed detections for a lookup.
type DetectionsResponse struct {
	Detections []semindex.Detection `json:"detections"`
}

// VideosResponse lists stored video names.
type VideosResponse struct {
	Videos []string `json:"videos"`
}

// VideoInfo is one video's catalog record plus derived inventory. Meta
// reuses the manifest's own JSON encoding (tilestore.VideoMeta).
type VideoInfo struct {
	Meta   tilestore.VideoMeta `json:"meta"`
	Bytes  int64               `json:"bytes"`
	Labels []string            `json:"labels"`
}

// AutotilePauseRequest suspends background re-tiling; Reason (optional)
// is surfaced in the status for the operator who finds it paused later.
type AutotilePauseRequest struct {
	Reason string `json:"reason,omitempty"`
}

// RepairRequest re-materializes one video's box→tile pointers.
type RepairRequest struct {
	Video string `json:"video"`
}

// ---- scale-out (tasm-router) ----

// ShardInfo is one shard's identity and health as a router sees it.
type ShardInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Healthy reflects the router's breaker state, not the shard's own
	// opinion: false once ConsecutiveFailures reached the breaker
	// threshold, true again after the next successful probe.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures counts probe and request failures since the
	// shard's last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
}

// ShardsResponse is GET /v1/shards on a router: the live shard map and
// per-shard health.
type ShardsResponse struct {
	Replicas int         `json:"replicas"`
	Shards   []ShardInfo `json:"shards"`
}

// ShardCacheStats is one shard's contribution to a router's stats
// aggregation. Error is set (and Stats zero) when the shard could not
// be reached for the snapshot.
type ShardCacheStats struct {
	Shard   string          `json:"shard"`
	Addr    string          `json:"addr"`
	Healthy bool            `json:"healthy"`
	Error   string          `json:"error,omitempty"`
	Stats   tilecache.Stats `json:"stats"`
}

// ShardedCacheStats is a router's GET /v1/stats body: the merged totals
// inline — so a plain client decodes it as an ordinary tilecache.Stats
// unchanged — plus the per-shard breakdown. A single tasmd never sets
// Shards, which is how callers tell the two apart.
type ShardedCacheStats struct {
	tilecache.Stats
	Shards []ShardCacheStats `json:"shards,omitempty"`
}

// ---- streaming requests and the NDJSON line envelope ----

// ScanRequest starts a streaming Scan. Exactly one of SQL and Query is
// set: SQL is parsed server-side (parse failures are bad_request),
// Query is the pre-parsed form.
type ScanRequest struct {
	SQL   string `json:"sql,omitempty"`
	Query *Query `json:"query,omitempty"`
}

// DecodeFramesRequest starts a streaming whole-frame decode of
// [From, To); To == -1 means "to the end of the video".
type DecodeFramesRequest struct {
	Video string `json:"video"`
	From  int    `json:"from"`
	To    int    `json:"to"`
}

// Region is one streamed Scan result: a pixel region on one frame.
type Region struct {
	Frame  int       `json:"frame"`
	Region geom.Rect `json:"region"`
	Pixels Frame     `json:"pixels"`
}

// FromRegion converts an in-process scan result.
func FromRegion(r core.RegionResult) Region {
	return Region{Frame: r.Frame, Region: r.Region, Pixels: FromFrame(r.Pixels)}
}

// ToRegion converts back to the in-process type.
func (r Region) ToRegion() (core.RegionResult, error) {
	f, err := r.Pixels.ToFrame()
	if err != nil {
		return core.RegionResult{}, err
	}
	return core.RegionResult{Frame: r.Frame, Region: r.Region, Pixels: f}, nil
}

// FrameLine is one streamed whole-frame result.
type FrameLine struct {
	Index  int   `json:"index"`
	Pixels Frame `json:"pixels"`
}

// FromFrameResult converts an in-process frame result.
func FromFrameResult(r core.FrameResult) FrameLine {
	return FrameLine{Index: r.Index, Pixels: FromFrame(r.Pixels)}
}

// ToFrameResult converts back to the in-process type.
func (l FrameLine) ToFrameResult() (core.FrameResult, error) {
	f, err := l.Pixels.ToFrame()
	if err != nil {
		return core.FrameResult{}, err
	}
	return core.FrameResult{Index: l.Index, Pixels: f}, nil
}

// StreamLine is the NDJSON envelope every streaming endpoint emits, one
// JSON object per line, flushed per line. Exactly one field is set:
// Region (scan results), Frame (whole-frame decodes), Stats (the final
// line of a successful stream — its presence is the client's
// end-of-stream marker, so a torn TCP stream is never mistaken for
// clean exhaustion), or Error (the final line of a failed stream).
type StreamLine struct {
	Region *Region         `json:"region,omitempty"`
	Frame  *FrameLine      `json:"frame,omitempty"`
	Stats  *core.ScanStats `json:"stats,omitempty"`
	Error  *ErrorBody      `json:"error,omitempty"`
}
