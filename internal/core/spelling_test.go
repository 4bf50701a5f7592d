package core

import (
	"reflect"
	"testing"

	"github.com/tasm-repro/tasm/internal/apiguard"
)

// TestOneSpelling: the manager has no context-less twin of any XContext
// method (see the root package's test of the same name).
func TestOneSpelling(t *testing.T) {
	if twins := apiguard.ContextTwins(reflect.TypeOf((*Manager)(nil))); len(twins) > 0 {
		t.Errorf("*Manager has both X and XContext for %v", twins)
	}
}

// TestScanStatsAddCoversEveryField sets every ScanStats field to a
// distinct value by reflection and checks Add sums each one, so a counter
// added to the struct without extending Add fails here instead of
// silently vanishing from merged, multi-video and live-tail stats.
func TestScanStatsAddCoversEveryField(t *testing.T) {
	fill := func(base int64) ScanStats {
		var st ScanStats
		v := reflect.ValueOf(&st).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInt() {
				t.Fatalf("ScanStats.%s is a %s: teach this test (and Add) about it", v.Type().Field(i).Name, f.Kind())
			}
			f.SetInt(base * int64(i+1))
		}
		return st
	}
	sum := fill(1)
	sum.Add(fill(1000))
	got, want := reflect.ValueOf(sum), reflect.ValueOf(fill(1001))
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Int() != want.Field(i).Int() {
			t.Errorf("Add drops or miscounts ScanStats.%s: got %d, want %d",
				got.Type().Field(i).Name, got.Field(i).Int(), want.Field(i).Int())
		}
	}
}
