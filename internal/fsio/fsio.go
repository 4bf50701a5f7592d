// Package fsio is the filesystem seam of the tilestore and the semantic
// index. Every mutation the two perform — writing tile and manifest
// files, appending index log records, committing version directories
// and checkpoints by rename, syncing files and parent directories — goes
// through the FS interface, so one implementation (OS) provides real
// durability via fsync discipline while another (MemFS) models a
// power-cut at any operation index for deterministic crash testing.
//
// The interface deliberately separates WriteFile from SyncFile and
// exposes SyncDir: crash consistency lives in the *ordering* of these
// calls (write → sync file → rename → sync parent dir), and keeping
// them as distinct operations is what gives the fault injector a
// crashpoint between every pair.
package fsio

import (
	"os"
)

// FS is the set of filesystem operations the tilestore and the semantic
// index perform.
// Implementations must return errors wrapping os.ErrNotExist for
// missing paths, as os does, so errors.Is(err, os.ErrNotExist) works
// identically against every implementation.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// WriteFile writes data to a file, creating or truncating it. The
	// data is NOT durable until SyncFile returns; a crash may leave the
	// file absent, empty, or holding its previous synced content.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// AppendFile appends data to a file, creating it if absent. Like
	// WriteFile, the data is NOT durable until SyncFile returns; a
	// crash may leave any prefix of it behind.
	AppendFile(path string, data []byte, perm os.FileMode) error
	// SyncFile flushes a file's content to stable storage.
	SyncFile(path string) error
	// SyncDir flushes a directory's entries (creations, renames,
	// removals of its children) to stable storage.
	SyncDir(path string) error
	// Rename atomically replaces newpath with oldpath. Durability of
	// the rename requires syncing the parent directory (directories,
	// for a cross-directory rename).
	Rename(oldpath, newpath string) error
	// Remove removes a file or empty directory.
	Remove(path string) error
	// RemoveAll removes a path and any children; missing paths are not
	// an error.
	RemoveAll(path string) error
	// ReadFile returns a file's content.
	ReadFile(path string) ([]byte, error)
	// ReadDir returns a directory's entries sorted by name.
	ReadDir(path string) ([]os.DirEntry, error)
	// Stat describes a path.
	Stat(path string) (os.FileInfo, error)
}

// OS is the production FS: the real filesystem with full fsync
// discipline. WriteFile alone gives no durability promise (matching
// the interface contract); callers order SyncFile/SyncDir explicitly.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (OS) AppendFile(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OS) SyncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OS) SyncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                   { return os.Remove(path) }
func (OS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (OS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (OS) Stat(path string) (os.FileInfo, error)      { return os.Stat(path) }

var _ FS = OS{}
