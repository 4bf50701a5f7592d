package fsio

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation after a MemFS power-cut
// fires (CrashAt) until Recover is called. The whole process is
// "powered off": even the error-path cleanup of the code under test
// fails, exactly as it would after a real power cut.
var ErrCrashed = fmt.Errorf("fsio: simulated power cut")

// ErrInjected is the default error returned by operations selected
// with FailOp.
var ErrInjected = fmt.Errorf("fsio: injected fault")

// ErrTornWrite is returned by a WriteFile or AppendFile torn with
// TearWrite; the file is left holding only the prefix of the data.
var ErrTornWrite = fmt.Errorf("fsio: torn write")

// MemFS is an in-memory FS that models power-cut durability
// semantics for deterministic crash testing:
//
//   - File data written with WriteFile or AppendFile lives only in
//     the "current" view until SyncFile copies it to the durable view.
//     A crash reverts every file to its last synced content (empty if
//     never synced).
//   - Directory entries — creations, renames, removals — live in the
//     current view until SyncDir snapshots the directory's entry
//     table. A crash reverts each directory to its last synced entry
//     set, which resurrects unsynced removals and un-does unsynced
//     renames, entry by entry, like a journaling filesystem replaying
//     only the transactions that reached the log.
//
// Fault injection is keyed by a deterministic operation counter that
// increments on every mutating operation (MkdirAll, WriteFile,
// AppendFile, SyncFile, SyncDir, Rename, Remove, RemoveAll): CrashAt(n)
// power-cuts the filesystem at the nth mutation (the operation fails
// without taking effect, and everything after it fails with ErrCrashed
// until Recover), FailOp(n, err) makes the nth mutation fail
// transiently, and TearWrite(n, off) truncates the nth mutation — which
// must be a WriteFile or AppendFile — to its first off bytes.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu   sync.Mutex
	root *memNode

	ops     int
	crashAt int // power-cut at the ops'th mutation; 0 = disabled
	crashed bool
	failAt  map[int]error
	tearAt  int
	tearOff int
}

type memNode struct {
	dir      bool
	children map[string]*memNode // current entry table (dirs)
	durable  map[string]*memNode // last synced entry table (dirs)
	data     []byte              // current content (files)
	synced   []byte              // last synced content (files)
	mode     os.FileMode
}

// NewMemFS returns an empty MemFS whose root directory exists and is
// durable (it models a pre-existing mount point).
func NewMemFS() *MemFS {
	return &MemFS{root: newDir(0o755)}
}

func newDir(mode os.FileMode) *memNode {
	return &memNode{dir: true, children: map[string]*memNode{}, durable: map[string]*memNode{}, mode: mode}
}

// CrashAt arms a power-cut at the nth mutating operation from now
// (1-based). The nth mutation fails with ErrCrashed without taking
// effect, and every subsequent operation — reads included — fails
// with ErrCrashed until Recover is called.
func (m *MemFS) CrashAt(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = m.ops + n
}

// FailOp makes the nth mutating operation from now (1-based) fail
// with err (ErrInjected if nil) without taking effect. Unlike a
// crash, subsequent operations proceed normally. Multiple FailOp
// registrations accumulate.
func (m *MemFS) FailOp(n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	if m.failAt == nil {
		m.failAt = map[int]error{}
	}
	m.failAt[m.ops+n] = err
}

// TearWrite makes the nth mutating operation from now — which must be
// a WriteFile or AppendFile — apply only the first off bytes of its
// data and return ErrTornWrite, modeling a write interrupted mid-flight.
func (m *MemFS) TearWrite(n, off int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tearAt = m.ops + n
	m.tearOff = off
}

// Recover ends a power-cut: the current view of every file and
// directory is replaced by its durable view (unsynced writes vanish,
// unsynced removals and renames revert), and operations are accepted
// again. Calling Recover without a crash first simulates an
// instantaneous power cycle.
func (m *MemFS) Recover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.crashAt = 0
	m.root = recoverNode(m.root)
}

// Ops returns the number of mutating operations performed so far —
// the crashpoint space for an exhaustive power-cut sweep.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// recoverNode rebuilds the post-crash state of a node from durable
// views only. Nodes reachable solely through unsynced entries are
// dropped; nodes whose removal was never synced reappear.
func recoverNode(n *memNode) *memNode {
	if !n.dir {
		data := append([]byte(nil), n.synced...)
		return &memNode{data: data, synced: append([]byte(nil), n.synced...), mode: n.mode}
	}
	out := newDir(n.mode)
	for name, child := range n.durable {
		c := recoverNode(child)
		out.children[name] = c
		out.durable[name] = c
	}
	return out
}

// begin accounts one mutating operation and returns the error it must
// fail with, if any.
func (m *MemFS) begin() error {
	if m.crashed {
		return ErrCrashed
	}
	m.ops++
	if m.crashAt != 0 && m.ops >= m.crashAt {
		m.crashed = true
		return ErrCrashed
	}
	if err, ok := m.failAt[m.ops]; ok {
		delete(m.failAt, m.ops)
		return err
	}
	return nil
}

// split normalizes a path into its components relative to the root.
func split(p string) []string {
	p = path.Clean(filepath.ToSlash(p))
	p = strings.TrimPrefix(p, "/")
	if p == "" || p == "." {
		return nil
	}
	return strings.Split(p, "/")
}

// walk resolves a path to its node, or nil when any component is
// missing or a non-directory is traversed.
func (m *MemFS) walk(p string) *memNode {
	n := m.root
	for _, c := range split(p) {
		if n == nil || !n.dir {
			return nil
		}
		n = n.children[c]
	}
	return n
}

// walkParent resolves a path's parent directory and leaf name.
func (m *MemFS) walkParent(p string) (*memNode, string) {
	parts := split(p)
	if len(parts) == 0 {
		return nil, ""
	}
	n := m.root
	for _, c := range parts[:len(parts)-1] {
		if n == nil || !n.dir {
			return nil, ""
		}
		n = n.children[c]
	}
	if n == nil || !n.dir {
		return nil, ""
	}
	return n, parts[len(parts)-1]
}

func notExist(op, p string) error {
	return &os.PathError{Op: op, Path: p, Err: os.ErrNotExist}
}

func (m *MemFS) MkdirAll(p string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	n := m.root
	for _, c := range split(p) {
		child := n.children[c]
		if child == nil {
			child = newDir(perm)
			n.children[c] = child
		} else if !child.dir {
			return &os.PathError{Op: "mkdir", Path: p, Err: fmt.Errorf("not a directory")}
		}
		n = child
	}
	return nil
}

func (m *MemFS) WriteFile(p string, data []byte, perm os.FileMode) error {
	return m.write(p, data, perm, false)
}

func (m *MemFS) AppendFile(p string, data []byte, perm os.FileMode) error {
	return m.write(p, data, perm, true)
}

// write is WriteFile, or AppendFile when appending: either one counts
// as one mutation and can be torn by TearWrite.
func (m *MemFS) write(p string, data []byte, perm os.FileMode, appending bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	torn := false
	if m.tearAt != 0 && m.ops == m.tearAt {
		if off := m.tearOff; off < len(data) {
			data = data[:off]
		}
		torn = true
		m.tearAt = 0
	}
	parent, name := m.walkParent(p)
	if parent == nil {
		return notExist("open", p)
	}
	n := parent.children[name]
	if n == nil {
		n = &memNode{mode: perm}
		parent.children[name] = n
	} else if n.dir {
		return &os.PathError{Op: "open", Path: p, Err: fmt.Errorf("is a directory")}
	}
	if appending {
		n.data = append(n.data, data...)
	} else {
		n.data = append([]byte(nil), data...)
	}
	if torn {
		return &os.PathError{Op: "write", Path: p, Err: ErrTornWrite}
	}
	return nil
}

func (m *MemFS) SyncFile(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	n := m.walk(p)
	if n == nil {
		return notExist("sync", p)
	}
	if n.dir {
		n.durable = copyEntries(n.children)
		return nil
	}
	n.synced = append([]byte(nil), n.data...)
	return nil
}

func (m *MemFS) SyncDir(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	n := m.walk(p)
	if n == nil || !n.dir {
		return notExist("sync", p)
	}
	n.durable = copyEntries(n.children)
	return nil
}

func copyEntries(in map[string]*memNode) map[string]*memNode {
	out := make(map[string]*memNode, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func (m *MemFS) Rename(oldp, newp string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	op, oname := m.walkParent(oldp)
	if op == nil || op.children[oname] == nil {
		return &os.LinkError{Op: "rename", Old: oldp, New: newp, Err: os.ErrNotExist}
	}
	np, nname := m.walkParent(newp)
	if np == nil {
		return &os.LinkError{Op: "rename", Old: oldp, New: newp, Err: os.ErrNotExist}
	}
	n := op.children[oname]
	if ex := np.children[nname]; ex != nil && ex.dir && len(ex.children) > 0 {
		return &os.LinkError{Op: "rename", Old: oldp, New: newp, Err: fmt.Errorf("directory not empty")}
	}
	delete(op.children, oname)
	np.children[nname] = n
	return nil
}

func (m *MemFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	parent, name := m.walkParent(p)
	if parent == nil || parent.children[name] == nil {
		return notExist("remove", p)
	}
	if n := parent.children[name]; n.dir && len(n.children) > 0 {
		return &os.PathError{Op: "remove", Path: p, Err: fmt.Errorf("directory not empty")}
	}
	delete(parent.children, name)
	return nil
}

func (m *MemFS) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.begin(); err != nil {
		return err
	}
	parent, name := m.walkParent(p)
	if parent == nil {
		return nil
	}
	delete(parent.children, name)
	return nil
}

func (m *MemFS) ReadFile(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n := m.walk(p)
	if n == nil {
		return nil, notExist("open", p)
	}
	if n.dir {
		return nil, &os.PathError{Op: "read", Path: p, Err: fmt.Errorf("is a directory")}
	}
	return append([]byte(nil), n.data...), nil
}

func (m *MemFS) ReadDir(p string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n := m.walk(p)
	if n == nil {
		return nil, notExist("open", p)
	}
	if !n.dir {
		return nil, &os.PathError{Op: "readdir", Path: p, Err: fmt.Errorf("not a directory")}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]os.DirEntry, len(names))
	for i, name := range names {
		out[i] = memDirEntry{name: name, node: n.children[name]}
	}
	return out, nil
}

func (m *MemFS) Stat(p string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n := m.walk(p)
	if n == nil {
		return nil, notExist("stat", p)
	}
	return memFileInfo{name: path.Base(filepath.ToSlash(p)), node: n}, nil
}

var _ FS = (*MemFS)(nil)

type memFileInfo struct {
	name string
	node *memNode
}

func (fi memFileInfo) Name() string { return fi.name }
func (fi memFileInfo) Size() int64  { return int64(len(fi.node.data)) }
func (fi memFileInfo) Mode() os.FileMode {
	if fi.node.dir {
		return fi.node.mode | os.ModeDir
	}
	return fi.node.mode
}
func (fi memFileInfo) ModTime() time.Time { return time.Time{} }
func (fi memFileInfo) IsDir() bool        { return fi.node.dir }
func (fi memFileInfo) Sys() any           { return nil }

type memDirEntry struct {
	name string
	node *memNode
}

func (de memDirEntry) Name() string { return de.name }
func (de memDirEntry) IsDir() bool  { return de.node.dir }
func (de memDirEntry) Type() fs.FileMode {
	if de.node.dir {
		return fs.ModeDir
	}
	return 0
}
func (de memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: de.name, node: de.node}, nil
}
