package semindex

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/stats"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

func det(f int, label string, x, y int) Detection {
	return Detection{Frame: f, Label: label, Box: geom.R(x, y, x+20, y+20)}
}

// openTemp opens an index whose log lives in a fresh temp directory.
func openTemp(t *testing.T) *Index {
	t.Helper()
	ix, err := Open(filepath.Join(t.TempDir(), "semindex.log"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestAddLookup(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	for f := 0; f < 100; f++ {
		if err := ix.Add("traffic", det(f, "car", f, 10)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.Lookup("traffic", "car", 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("Lookup found %d, want 10", len(got))
	}
	for i, e := range got {
		if e.Frame != 20+i {
			t.Errorf("entry %d frame = %d", i, e.Frame)
		}
		if e.Label != "car" {
			t.Errorf("entry %d label = %q", i, e.Label)
		}
		if e.Box != geom.R(20+i, 10, 40+i, 30) {
			t.Errorf("entry %d box = %v", i, e.Box)
		}
	}
}

func TestLookupIsolatesLabelsAndVideos(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.Add("v1", det(5, "car", 0, 0))
	ix.Add("v1", det(5, "person", 100, 100))
	ix.Add("v2", det(5, "car", 50, 50))

	got, _ := ix.Lookup("v1", "car", 0, 10)
	if len(got) != 1 || got[0].Box.X0 != 0 {
		t.Errorf("v1/car lookup: %v", got)
	}
	got, _ = ix.Lookup("v2", "car", 0, 10)
	if len(got) != 1 || got[0].Box.X0 != 50 {
		t.Errorf("v2/car lookup: %v", got)
	}
	got, _ = ix.Lookup("v1", "bird", 0, 10)
	if len(got) != 0 {
		t.Errorf("absent label returned %v", got)
	}
}

func TestMultipleBoxesPerFrame(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.Add("v", det(3, "car", 0, 0))
	ix.Add("v", det(3, "car", 100, 0))
	ix.Add("v", det(3, "car", 200, 0))
	got, _ := ix.Lookup("v", "car", 3, 4)
	if len(got) != 3 {
		t.Fatalf("got %d boxes, want 3", len(got))
	}
	// Duplicate add coalesces.
	ix.Add("v", det(3, "car", 0, 0))
	got, _ = ix.Lookup("v", "car", 3, 4)
	if len(got) != 3 {
		t.Errorf("duplicate add changed count to %d", len(got))
	}
}

// Within a frame, boxes come back ordered by X0, Y0, X1, Y1 whatever
// order they were added in.
func TestLookupOrder(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	want := []geom.Rect{
		geom.R(0, 5, 10, 10), geom.R(0, 6, 4, 9), geom.R(0, 6, 8, 8), geom.R(0, 6, 8, 9), geom.R(3, 0, 5, 5),
	}
	batch := []Detection{}
	for _, i := range []int{4, 2, 0, 3, 1, 2} {
		batch = append(batch, Detection{Frame: 1, Label: "car", Box: want[i]})
	}
	batch = append(batch, Detection{Frame: 0, Label: "car", Box: geom.R(9, 9, 10, 10)})
	if err := ix.AddBatch("v", batch); err != nil {
		t.Fatal(err)
	}
	got, err := ix.LookupBoxes("v", "car", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	if err := ix.Add("", det(0, "car", 0, 0)); err == nil {
		t.Error("empty video accepted")
	}
	if err := ix.Add("v", Detection{Frame: 0, Label: "", Box: geom.R(0, 0, 5, 5)}); err == nil {
		t.Error("empty label accepted")
	}
	if err := ix.Add("v\x00x", det(0, "car", 0, 0)); err == nil {
		t.Error("NUL video accepted")
	}
	if err := ix.Add("v", Detection{Frame: -1, Label: "car", Box: geom.R(0, 0, 5, 5)}); err == nil {
		t.Error("negative frame accepted")
	}
	if err := ix.Add("v", Detection{Frame: 0, Label: "car"}); err == nil {
		t.Error("empty box accepted")
	}
	// A negative coordinate is the caller's error, not a box stored as
	// something else.
	for _, b := range []geom.Rect{geom.R(-8, 4, 30, 40), geom.R(8, -4, 30, 40)} {
		if err := ix.Add("v", Detection{Frame: 0, Label: "car", Box: b}); !errors.Is(err, tasmerr.ErrInvalidRange) {
			t.Errorf("box %v: err = %v, want ErrInvalidRange", b, err)
		}
	}
	for _, r := range [][2]int{{-3, 2}, {5, 4}} {
		if err := ix.MarkDetected("v", "bus", r[0], r[1]); !errors.Is(err, tasmerr.ErrInvalidRange) {
			t.Errorf("MarkDetected%v: err = %v, want ErrInvalidRange", r, err)
		}
	}
	if labels, _ := ix.Labels("v"); len(labels) != 0 {
		t.Errorf("rejected writes stored labels %v", labels)
	}
}

func TestLabels(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.Add("v", det(0, "person", 0, 0))
	ix.Add("v", det(1, "car", 0, 0))
	ix.Add("v", det(2, "car", 10, 0))
	ix.Add("other", det(0, "bird", 0, 0))
	ix.MarkDetected("v", "bus", 0, 10) // coverage alone is not a label
	labels, err := ix.Labels("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[0] != "car" || labels[1] != "person" {
		t.Errorf("Labels = %v", labels)
	}
	labels, _ = ix.Labels("missing")
	if len(labels) != 0 {
		t.Errorf("missing video labels = %v", labels)
	}
}

func TestCoverage(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.MarkDetected("v", "car", 0, 50)
	ok, err := ix.DetectedAll("v", "car", 0, 50)
	if err != nil || !ok {
		t.Errorf("DetectedAll full range = %v, %v", ok, err)
	}
	ok, _ = ix.DetectedAll("v", "car", 0, 51)
	if ok {
		t.Error("coverage extends past marked range")
	}
	ok, _ = ix.DetectedAll("v", "car", 10, 20)
	if !ok {
		t.Error("sub-range not covered")
	}
	ok, _ = ix.DetectedAll("v", "person", 0, 10)
	if ok {
		t.Error("unmarked label covered")
	}
	ok, _ = ix.DetectedAll("v", "car", 40, 60)
	if ok {
		t.Error("range straddling the mark's end covered")
	}
	// Empty range is trivially covered.
	ok, _ = ix.DetectedAll("v", "car", 5, 5)
	if !ok {
		t.Error("empty range not covered")
	}
	// Adjacent marks merge; a gap keeps them apart.
	ix.MarkDetected("v", "person", 0, 10)
	ix.MarkDetected("v", "person", 10, 20)
	ok, _ = ix.DetectedAll("v", "person", 0, 20)
	if !ok {
		t.Error("adjacent marks did not merge")
	}
	ix.MarkDetected("v", "person", 30, 40)
	if ok, _ = ix.DetectedAll("v", "person", 15, 35); ok {
		t.Error("gap [20, 30) reported covered")
	}
	ix.MarkDetected("v", "person", 5, 32) // bridges both spans
	if ok, _ = ix.DetectedAll("v", "person", 0, 40); !ok {
		t.Error("bridging mark did not merge the spans")
	}
	// An empty mark is a no-op.
	if err := ix.MarkDetected("v", "boat", 7, 7); err != nil {
		t.Fatal(err)
	}
}

// A mark is one record however long its range: the cost of
// MarkDetected does not grow with the number of frames it covers.
func TestMarkDetectedIsOneRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semindex.log")
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	before := fileSize(t, path)
	start := time.Now()
	if err := ix.MarkDetected("v", "car", 0, 1<<31); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("MarkDetected of 2^31 frames took %v", wall)
	}
	if grew := fileSize(t, path) - before; grew >= 1<<10 {
		t.Errorf("MarkDetected of 2^31 frames appended %d bytes", grew)
	}
	if ok, _ := ix.DetectedAll("v", "car", 1<<30, 1<<31); !ok {
		t.Error("long mark not covered")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestPersistentIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sem.idx")
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for f := 0; f < 300; f++ {
		ix.Add("v", det(f, "car", rng.Intn(500), rng.Intn(300)))
		if f%2 == 0 {
			ix.Add("v", det(f, "person", rng.Intn(500), rng.Intn(300)))
		}
	}
	ix.MarkDetected("v", "car", 0, 300)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	cars, _ := ix2.Lookup("v", "car", 0, 300)
	if len(cars) != 300 {
		t.Errorf("reopened car count = %d", len(cars))
	}
	people, _ := ix2.Lookup("v", "person", 0, 300)
	if len(people) != 150 {
		t.Errorf("reopened person count = %d", len(people))
	}
	ok, _ := ix2.DetectedAll("v", "car", 0, 300)
	if !ok {
		t.Error("coverage lost after reopen")
	}
}

// Every acknowledged write is on disk when it returns: a second open of
// the same log, with the first never closed (a killed process), sees
// all of them.
func TestReopenWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semindex.log")
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Detection
	for f := 0; f < 500; f++ {
		batch = append(batch, det(f, "car", f%300, 7))
	}
	if err := ix.AddBatch("v", batch); err != nil {
		t.Fatal(err)
	}
	if err := ix.MarkDetected("v", "car", 0, 500); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got, _ := ix2.Lookup("v", "car", 0, 500); len(got) != 500 {
		t.Errorf("reopened without Close: %d detections, want 500", len(got))
	}
	if ok, _ := ix2.DetectedAll("v", "car", 0, 500); !ok {
		t.Error("reopened without Close: coverage lost")
	}
}

func TestLookupBoxes(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.Add("v", det(1, "car", 10, 20))
	boxes, err := ix.LookupBoxes("v", "car", 0, 5)
	if err != nil || len(boxes) != 1 {
		t.Fatalf("LookupBoxes: %v %v", boxes, err)
	}
	if boxes[0] != geom.R(10, 20, 30, 40) {
		t.Errorf("box = %v", boxes[0])
	}
}

func TestEmptyRangeLookup(t *testing.T) {
	ix := openTemp(t)
	defer ix.Close()
	ix.Add("v", det(5, "car", 0, 0))
	got, err := ix.Lookup("v", "car", 7, 7)
	if err != nil || len(got) != 0 {
		t.Errorf("empty range lookup: %v %v", got, err)
	}
	got, err = ix.Lookup("v", "car", 9, 3)
	if err != nil || len(got) != 0 {
		t.Errorf("inverted range lookup: %v %v", got, err)
	}
}

func TestDeleteVideo(t *testing.T) {
	ix := openTemp(t)
	for f := 0; f < 5; f++ {
		if err := ix.Add("a", Detection{Frame: f, Label: "car", Box: geom.R(0, 0, 8, 8)}); err != nil {
			t.Fatal(err)
		}
		if err := ix.Add("b", Detection{Frame: f, Label: "car", Box: geom.R(0, 0, 8, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.MarkDetected("a", "car", 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteVideo("a"); err != nil {
		t.Fatal(err)
	}
	if labels, _ := ix.Labels("a"); len(labels) != 0 {
		t.Fatalf("labels(a) = %v after delete", labels)
	}
	if got, _ := ix.Lookup("a", "car", 0, 5); len(got) != 0 {
		t.Fatalf("%d detections survive delete", len(got))
	}
	if ok, _ := ix.DetectedAll("a", "car", 0, 5); ok {
		t.Fatal("coverage markers survive delete")
	}
	// Video "b" is untouched.
	if got, _ := ix.Lookup("b", "car", 0, 5); len(got) != 5 {
		t.Fatalf("lookup(b) = %d, want 5", len(got))
	}
	// Deleting a video with no records is a no-op, not an error.
	if err := ix.DeleteVideo("ghost"); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteVideoAtomicForLookups hammers Lookup and Labels while
// DeleteVideo runs: every read must return all of the video's detections
// or none — a proper subset would reach a scan as a silently partial
// answer.
func TestDeleteVideoAtomicForLookups(t *testing.T) {
	const frames = 400
	for round := 0; round < 20; round++ {
		ix := openTemp(t)
		for f := 0; f < frames; f++ {
			for _, label := range []string{"car", "person"} {
				if err := ix.Add("v", Detection{Frame: f, Label: label, Box: geom.R(0, 0, 8, 8)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		start := make(chan struct{})
		deleted := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					got, err := ix.Lookup("v", "person", 0, frames)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != 0 && len(got) != frames {
						t.Errorf("lookup during delete returned %d of %d detections", len(got), frames)
						return
					}
					labels, err := ix.Labels("v")
					if err != nil {
						t.Error(err)
						return
					}
					if len(labels) != 0 && len(labels) != 2 {
						t.Errorf("labels during delete = %v, want both or none", labels)
						return
					}
					select {
					case <-deleted:
						return
					default:
					}
				}
			}()
		}
		close(start)
		if err := ix.DeleteVideo("v"); err != nil {
			t.Fatal(err)
		}
		close(deleted)
		wg.Wait()
	}
}
