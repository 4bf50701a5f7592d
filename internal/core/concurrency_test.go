package core

import (
	"context"
	"sync"
	"testing"

	"github.com/tasm-repro/tasm/internal/query"
)

// TestConcurrentScans verifies that many simultaneous readers see
// consistent results (the tile store serializes against retiles; scans
// themselves share nothing mutable).
func TestConcurrentScans(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q, err := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 20")
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	counts := make(chan int, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, _, err := m.ScanContext(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				counts <- len(res)
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range counts {
		if c != len(ref) {
			t.Errorf("concurrent scan returned %d regions, want %d", c, len(ref))
		}
	}
}

// TestConcurrentMetadataAndScan runs index writes alongside scans: the
// index serializes writers, so both must complete without error and the
// scan results must stay within the indexed universe.
func TestConcurrentMetadataAndScan(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q, _ := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 20")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := m.AddMetadata("traffic", i%30, "bicycle", 4, 4, 24, 24); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, err := m.ScanContext(ctx, q); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := m.Index().LookupBoxes("traffic", "bicycle", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("concurrent adds lost")
	}
}
