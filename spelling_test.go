package tasm_test

import (
	"reflect"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/apiguard"
)

// TestOneSpelling keeps the X/XContext pairs from growing back on the
// public API: an operation that takes a context has no context-less twin.
// internal/core and client run the same guard on their own types.
// tilestore.Store is deliberately not guarded: benchmark/ pins its
// Snapshot/SnapshotRange and ReplaceSOT pairs by name.
func TestOneSpelling(t *testing.T) {
	for _, v := range []any{(*tasm.StorageManager)(nil), (*tasm.LazyTiler)(nil)} {
		if twins := apiguard.ContextTwins(reflect.TypeOf(v)); len(twins) > 0 {
			t.Errorf("%T has both X and XContext for %v", v, twins)
		}
	}
}
