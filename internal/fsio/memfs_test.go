package fsio

import (
	"errors"
	"os"
	"testing"
)

func write(t *testing.T, fs FS, path, data string) {
	t.Helper()
	if err := fs.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatalf("WriteFile(%s): %v", path, err)
	}
}

func readStr(t *testing.T, fs FS, path string) string {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return string(data)
}

func TestMemFSBasics(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/store/v/d", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, m, "/store/v/d/tile0.tsv", "hello")
	if got := readStr(t, m, "/store/v/d/tile0.tsv"); got != "hello" {
		t.Errorf("read back %q", got)
	}
	if _, err := m.ReadFile("/store/absent"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file err = %v, want ErrNotExist", err)
	}
	if _, err := m.Stat("/store/v/d"); err != nil {
		t.Error(err)
	}
	ents, err := m.ReadDir("/store/v/d")
	if err != nil || len(ents) != 1 || ents[0].Name() != "tile0.tsv" || ents[0].IsDir() {
		t.Errorf("ReadDir = %v, %v", ents, err)
	}
	if err := m.Rename("/store/v/d", "/store/v/e"); err != nil {
		t.Fatal(err)
	}
	if got := readStr(t, m, "/store/v/e/tile0.tsv"); got != "hello" {
		t.Errorf("after rename: %q", got)
	}
}

// Unsynced file data does not survive a power cycle; synced data does.
func TestMemFSCrashDropsUnsyncedData(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	m.SyncDir("/") // /d entry durable
	write(t, m, "/d/a", "v1")
	m.SyncFile("/d/a")
	m.SyncDir("/d") // /d/a entry durable with content v1
	write(t, m, "/d/a", "v2")
	write(t, m, "/d/b", "new")
	m.Recover() // power cycle
	if got := readStr(t, m, "/d/a"); got != "v1" {
		t.Errorf("a = %q, want synced v1", got)
	}
	if _, err := m.ReadFile("/d/b"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unsynced b survived: %v", err)
	}
}

// A file whose entry was synced but whose content never was comes back
// empty — the classic "zero-length file after crash".
func TestMemFSCrashZeroLengthFile(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	m.SyncDir("/")
	write(t, m, "/d/a", "data")
	m.SyncDir("/d") // entry durable, content not
	m.Recover()
	if got := readStr(t, m, "/d/a"); got != "" {
		t.Errorf("a = %q, want empty", got)
	}
}

// An unsynced removal or rename reverts on crash.
func TestMemFSCrashResurrectsUnsyncedRemoval(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	m.SyncDir("/")
	write(t, m, "/d/a", "v1")
	m.SyncFile("/d/a")
	m.SyncDir("/d")
	if err := m.Remove("/d/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("remove did not take in current view")
	}
	m.Recover()
	if got := readStr(t, m, "/d/a"); got != "v1" {
		t.Errorf("a after crash = %q, want resurrected v1", got)
	}

	// Rename away, unsynced: reverts to the old name.
	m.Rename("/d/a", "/d/b")
	m.Recover()
	if got := readStr(t, m, "/d/a"); got != "v1" {
		t.Errorf("a after unsynced-rename crash = %q", got)
	}
	if _, err := m.ReadFile("/d/b"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("b should not survive: %v", err)
	}

	// Rename with both sides synced: survives at the new name.
	m.Rename("/d/a", "/d/b")
	m.SyncDir("/d")
	m.Recover()
	if got := readStr(t, m, "/d/b"); got != "v1" {
		t.Errorf("b after synced-rename crash = %q", got)
	}
	if _, err := m.ReadFile("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a should be gone: %v", err)
	}
}

func TestMemFSCrashAt(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)  // op 1
	m.SyncDir("/")           // op 2
	m.CrashAt(2)             // arm: second mutation from now
	write(t, m, "/d/a", "x") // op 3: ok
	if err := m.WriteFile("/d/b", []byte("y"), 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op at crashpoint = %v, want ErrCrashed", err)
	}
	// Everything fails until recovery, reads included.
	if err := m.Remove("/d/a"); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash mutation = %v", err)
	}
	if _, err := m.ReadFile("/d/a"); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash read = %v", err)
	}
	m.Recover()
	// a was never synced: gone. d survives (synced into root).
	if _, err := m.ReadFile("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unsynced a survived crash: %v", err)
	}
	if _, err := m.Stat("/d"); err != nil {
		t.Errorf("synced dir lost: %v", err)
	}
}

// Appended data is durable only up to the last SyncFile, and an append
// can be torn like a write.
func TestMemFSAppendFile(t *testing.T) {
	m := NewMemFS()
	if err := m.AppendFile("/log", []byte("ab"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.SyncFile("/log")
	m.SyncDir("/")
	if err := m.AppendFile("/log", []byte("cd"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readStr(t, m, "/log"); got != "abcd" {
		t.Errorf("log = %q, want abcd", got)
	}
	m.Recover()
	if got := readStr(t, m, "/log"); got != "ab" {
		t.Errorf("log after crash = %q, want synced ab", got)
	}
	m.TearWrite(1, 1)
	if err := m.AppendFile("/log", []byte("xyz"), 0o644); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn append = %v", err)
	}
	if got := readStr(t, m, "/log"); got != "abx" {
		t.Errorf("torn log = %q, want abx", got)
	}
}

func TestMemFSFailOpAndTearWrite(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	sentinel := errors.New("boom")
	m.FailOp(1, sentinel)
	if err := m.WriteFile("/d/a", []byte("x"), 0o644); !errors.Is(err, sentinel) {
		t.Fatalf("failed op = %v, want sentinel", err)
	}
	// Transient: the next op succeeds, and the failed one left no trace.
	if _, err := m.ReadFile("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write left data: %v", err)
	}
	write(t, m, "/d/a", "recovered")

	m.TearWrite(1, 3)
	if err := m.WriteFile("/d/t", []byte("abcdef"), 0o644); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn write = %v", err)
	}
	if got := readStr(t, m, "/d/t"); got != "abc" {
		t.Errorf("torn file = %q, want prefix abc", got)
	}
}
