package rpcwire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/tasm-repro/tasm/internal/adapt"
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tilecache"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// fillDistinct sets every field reachable from v to a distinct non-zero
// value, numbering scalars in declaration order (slices get two
// elements), so a renamed, reordered or dropped key shows in the
// marshaled bytes.
func fillDistinct(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fillDistinct(s.Index(0), n)
		fillDistinct(s.Index(1), n)
		v.Set(s)
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// TestGoldenWireBytes pins the bytes of the thirteen in-process types
// that travel as they are. The literals were captured from the mirror
// structs rpcwire declared before the JSON tags moved onto the types
// themselves (same fill, same field order), so a passing test is "the
// wire did not change".
func TestGoldenWireBytes(t *testing.T) {
	for _, tc := range []struct {
		v          any // pointer to a zero value
		full, zero string
	}{
		{&geom.Rect{},
			`{"x0":1,"y0":2,"x1":3,"y1":4}`,
			`{"x0":0,"y0":0,"x1":0,"y1":0}`},
		{&semindex.Detection{},
			`{"frame":1,"label":"s2","box":{"x0":3,"y0":4,"x1":5,"y1":6}}`,
			`{"frame":0,"label":"","box":{"x0":0,"y0":0,"x1":0,"y1":0}}`},
		{&core.IngestStats{},
			`{"encode_wall_ns":1,"bytes":2,"sots":3}`,
			`{"encode_wall_ns":0,"bytes":0,"sots":0}`},
		{&core.AppendStats{},
			`{"encode_wall_ns":1,"bytes":2,"sots":3,"frames":4,"frame_count":5}`,
			`{"encode_wall_ns":0,"bytes":0,"sots":0,"frames":0,"frame_count":0}`},
		{&core.RetileStats{},
			`{"decode_wall_ns":1,"encode_wall_ns":2,"bytes":3}`,
			`{"decode_wall_ns":0,"encode_wall_ns":0,"bytes":0}`},
		{&core.ScanStats{},
			`{"index_wall_ns":1,"decode_wall_ns":2,"assemble_wall_ns":3,"pixels_decoded":4,"tiles_decoded":5,"frames_decoded":6,"regions_returned":7,"sots_touched":8,"cache_hits":9,"cache_misses":10,"cache_evictions":11}`,
			`{"index_wall_ns":0,"decode_wall_ns":0,"assemble_wall_ns":0,"pixels_decoded":0,"tiles_decoded":0,"frames_decoded":0,"regions_returned":0,"sots_touched":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0}`},
		{&tilestore.RetentionPolicy{},
			`{"max_age_frames":1,"max_bytes":2}`,
			`{}`},
		{&tilestore.TrimReport{},
			`{"removed":[1,2],"trimmed_to":3,"freed_bytes":4}`,
			`{"trimmed_to":0,"freed_bytes":0}`},
		{&tilestore.GCReport{},
			`{"removed":["s1","s2"],"deferred":["s3","s4"]}`,
			`{"removed":null,"deferred":null}`},
		{&tilestore.FsckReport{},
			`{"videos":1,"sots":2,"tiles":3,"leases":4,"problems":["s5","s6"],"orphans":["s7","s8"]}`,
			`{"videos":0,"sots":0,"tiles":0,"leases":0,"problems":null,"orphans":null}`},
		{&tilestore.RepairReport{},
			`{"quarantined":["s1","s2"],"reverted":["s3","s4"],"videos":["s5","s6"]}`,
			`{"quarantined":null,"reverted":null,"videos":null}`},
		{&tilecache.Stats{},
			`{"hits":1,"misses":2,"evictions":3,"invalidations":4,"bytes_cached":5,"entries":6,"budget":7}`,
			`{"hits":0,"misses":0,"evictions":0,"invalidations":0,"bytes_cached":0,"entries":0,"budget":0}`},
		{&adapt.Status{},
			`{"enabled":true,"paused":true,"pause_reason":"s1","queries_observed":2,"queries_pending":3,"queries_dropped":4,"actions_applied":5,"actions_failed":6,"bytes_spent":7,"io_budget":8,"regret":9.5,"last_action":"s10","last_error":"s11"}`,
			`{"enabled":false,"paused":false,"queries_observed":0,"queries_pending":0,"queries_dropped":0,"actions_applied":0,"actions_failed":0,"bytes_spent":0,"io_budget":0,"regret":0}`},
	} {
		name := reflect.TypeOf(tc.v).Elem().String()
		if got, _ := json.Marshal(tc.v); string(got) != tc.zero {
			t.Errorf("%s zero value:\n got %s\nwant %s", name, got, tc.zero)
		}
		n := 0
		fillDistinct(reflect.ValueOf(tc.v).Elem(), &n)
		if got, _ := json.Marshal(tc.v); string(got) != tc.full {
			t.Errorf("%s every field set:\n got %s\nwant %s", name, got, tc.full)
		}
		back := reflect.New(reflect.TypeOf(tc.v).Elem())
		if err := json.Unmarshal([]byte(tc.full), back.Interface()); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(back.Interface(), tc.v) {
			t.Errorf("%s round trip: got %+v, want %+v", name, back.Elem(), reflect.ValueOf(tc.v).Elem())
		}
	}
}

// TestWireFieldsAreTagged: every exported field of every struct the
// wire carries — the envelopes declared here and the in-process types
// they embed or the handlers encode as they are — names its key. A
// field added later without a tag fails here instead of leaking a
// Go-default "FieldName" key. layout.Layout is the one exemption: it
// travels only inside VideoInfo.Meta, which is the manifest's on-disk
// encoding shipped verbatim.
func TestWireFieldsAreTagged(t *testing.T) {
	seen := map[reflect.Type]bool{reflect.TypeOf(layout.Layout{}): true}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Ptr, reflect.Slice:
			walk(ty.Elem())
		case reflect.Struct:
			if seen[ty] {
				return
			}
			seen[ty] = true
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				if !f.IsExported() {
					continue
				}
				if _, ok := f.Tag.Lookup("json"); !ok && !f.Anonymous {
					t.Errorf("%s.%s goes on the wire without a json tag", ty, f.Name)
				}
				walk(f.Type)
			}
		}
	}
	for _, root := range []any{
		core.IngestStats{}, core.AppendStats{}, core.RetileStats{},
		tilestore.TrimReport{}, tilestore.GCReport{}, tilestore.FsckReport{}, tilestore.RepairReport{},
		adapt.Status{},
		ErrorBody{}, IngestRequest{}, CreateLiveRequest{}, AppendRequest{}, SealRequest{}, RetentionRequest{},
		RetileRequest{}, DesignLayoutRequest{}, DesignLayoutResponse{}, MetadataRequest{}, MarkDetectedRequest{},
		DetectionsResponse{}, VideosResponse{}, VideoInfo{}, AutotilePauseRequest{},
		ShardsResponse{}, ShardedCacheStats{}, ScanRequest{}, DecodeFramesRequest{}, StreamLine{},
	} {
		walk(reflect.TypeOf(root))
	}
}
