package rpcwire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// TestErrorRoundTripAllSentinels is the property the serving layer
// stands on: every sentinel in the bidirectional mapping — the whole
// tasmerr taxonomy plus the serving and context sentinels — survives
// encode → (HTTP status, code) → JSON → decode with errors.Is intact,
// the server's message preserved, and a distinct code per sentinel.
func TestErrorRoundTripAllSentinels(t *testing.T) {
	sentinels := Sentinels()
	if len(sentinels) < 13 {
		t.Fatalf("mapping table lost rows: %d sentinels", len(sentinels))
	}
	codes := map[string]error{}
	for _, sentinel := range sentinels {
		// Encode the sentinel the way real layers surface it: wrapped
		// with operator-facing detail.
		wrapped := fmt.Errorf("core: scan %q SOT %d: %w", "traffic", 3, sentinel)
		status, body := EncodeError(wrapped)
		// tile_corrupt is the one sentinel legitimately on 500: stored
		// data failing verification IS a server-side fault, and its
		// distinct code keeps it decodable. Every other sentinel stays
		// off 500 so status alone separates mapped failures from the
		// internal catch-all.
		if status == http.StatusInternalServerError && !errors.Is(sentinel, tasmerr.ErrTileCorrupt) {
			t.Errorf("%v encoded as internal/500", sentinel)
		}
		if body.Code == "" || body.Code == codeInternal {
			t.Errorf("%v encoded with code %q", sentinel, body.Code)
		}
		if prev, dup := codes[body.Code]; dup {
			t.Errorf("code %q maps both %v and %v", body.Code, prev, sentinel)
		}
		codes[body.Code] = sentinel
		if body.Message != wrapped.Error() {
			t.Errorf("%v: message %q lost detail %q", sentinel, body.Message, wrapped.Error())
		}

		// The envelope crosses the wire as JSON.
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var got ErrorBody
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}

		decoded := DecodeError(got)
		if !errors.Is(decoded, sentinel) {
			t.Errorf("errors.Is lost across the wire for %v (decoded %v)", sentinel, decoded)
		}
		var re *RemoteError
		if !errors.As(decoded, &re) || re.Code != body.Code {
			t.Errorf("%v: decoded error lost its wire code", sentinel)
		}
	}
}

// TestErrorRoundTripTasmerrTaxonomy pins the requirement verbatim: each
// tasmerr sentinel individually (not just whatever the table holds).
func TestErrorRoundTripTasmerrTaxonomy(t *testing.T) {
	taxonomy := []error{
		tasmerr.ErrVideoNotFound, tasmerr.ErrVideoExists, tasmerr.ErrInvalidName,
		tasmerr.ErrInvalidRange, tasmerr.ErrSOTNotFound, tasmerr.ErrVideoDeleted,
		tasmerr.ErrRetileConflict, tasmerr.ErrCursorClosed, tasmerr.ErrNoFrames,
	}
	for _, sentinel := range taxonomy {
		status, body := EncodeError(fmt.Errorf("wrapped: %w", sentinel))
		if !errors.Is(DecodeError(body), sentinel) {
			t.Errorf("%v does not round-trip (status %d, code %q)", sentinel, status, body.Code)
		}
	}
}

func TestEncodeErrorPrefersTaxonomyOverContext(t *testing.T) {
	// A cancelled cursor wraps both ErrCursorClosed and (via the
	// pipeline) context.Canceled; the specific classification must win
	// regardless of wrap order in the table's favor.
	err := fmt.Errorf("%w: %w", tasmerr.ErrCursorClosed, context.Canceled)
	_, body := EncodeError(err)
	if body.Code != "cursor_closed" {
		t.Fatalf("got code %q, want cursor_closed", body.Code)
	}
}

func TestEncodeErrorUnknownIsInternal(t *testing.T) {
	status, body := EncodeError(errors.New("disk on fire"))
	if status != http.StatusInternalServerError || body.Code != codeInternal {
		t.Fatalf("got (%d, %q)", status, body.Code)
	}
	decoded := DecodeError(body)
	var re *RemoteError
	if !errors.As(decoded, &re) || re.Message != "disk on fire" {
		t.Fatalf("unknown error lost its message: %v", decoded)
	}
	if errors.Is(decoded, tasmerr.ErrVideoNotFound) || errors.Is(decoded, context.Canceled) {
		t.Fatal("internal error spuriously matches a sentinel")
	}
}

func TestDecodeErrorUnknownCode(t *testing.T) {
	// A newer server may emit codes this client does not know; the
	// message must survive and no sentinel may match.
	decoded := DecodeError(ErrorBody{Code: "quota_exceeded", Message: "tenant over budget"})
	var re *RemoteError
	if !errors.As(decoded, &re) || re.Code != "quota_exceeded" {
		t.Fatalf("got %v", decoded)
	}
	for _, s := range Sentinels() {
		if errors.Is(decoded, s) {
			t.Fatalf("unknown code matched sentinel %v", s)
		}
	}
}

func TestContextErrorsMapToStatuses(t *testing.T) {
	if status, _ := EncodeError(context.DeadlineExceeded); status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d", status)
	}
	if status, _ := EncodeError(context.Canceled); status != statusClientClosedRequest {
		t.Fatalf("canceled: status %d", status)
	}
	if !errors.Is(DecodeError(ErrorBody{Code: "deadline_exceeded"}), context.DeadlineExceeded) {
		t.Fatal("deadline_exceeded does not decode to context.DeadlineExceeded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := frame.New(32, 16)
	for i := range f.Y {
		f.Y[i] = byte(i)
	}
	for i := range f.Cb {
		f.Cb[i] = byte(200 - i)
		f.Cr[i] = byte(i * 3)
	}
	data, err := json.Marshal(FromFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	var w Frame
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.W != f.W || got.H != f.H {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	if string(got.Y) != string(f.Y) || string(got.Cb) != string(f.Cb) || string(got.Cr) != string(f.Cr) {
		t.Fatal("planes differ after round trip")
	}
}

func TestFrameRejectsMismatchedPlanes(t *testing.T) {
	w := Frame{W: 32, H: 16, Y: make([]byte, 5), Cb: make([]byte, 128), Cr: make([]byte, 128)}
	if _, err := w.ToFrame(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
	w = Frame{W: 31, H: 16}
	if _, err := w.ToFrame(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("odd width: got %v, want ErrBadRequest", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q, err := query.Parse("SELECT (car OR bicycle) AND red FROM traffic WHERE 30 <= t < 90")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(FromQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	var w Query
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	got := w.ToQuery()
	if got.Video != q.Video || got.From != q.From || got.To != q.To {
		t.Fatalf("got %+v, want %+v", got, q)
	}
	if fmt.Sprint(got.Pred.Clauses) != fmt.Sprint(q.Pred.Clauses) {
		t.Fatalf("clauses %v != %v", got.Pred.Clauses, q.Pred.Clauses)
	}
}

func TestRegionRoundTrip(t *testing.T) {
	px := frame.New(8, 8)
	px.Y[0] = 42
	r := core.RegionResult{Frame: 17, Region: geom.R(1, 2, 9, 10), Pixels: px}
	data, err := json.Marshal(StreamLine{Region: ptr(FromRegion(r))})
	if err != nil {
		t.Fatal(err)
	}
	var line StreamLine
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if line.Region == nil {
		t.Fatal("region line lost its payload")
	}
	got, err := line.Region.ToRegion()
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != r.Frame || got.Region != r.Region || got.Pixels.Y[0] != 42 {
		t.Fatalf("got %+v", got)
	}
}

func ptr[T any](v T) *T { return &v }
