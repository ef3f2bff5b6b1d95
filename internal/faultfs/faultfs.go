// Package faultfs is the file layer underneath the durable subsystems
// (internal/store's WAL+snapshot, internal/persistence's decision
// journal). It exists so crash consistency can be *tested*, not just
// claimed: every operation the durable layers perform — open, write,
// sync, close, rename, truncate, remove, directory sync — goes through
// the FS seam, and the test-only implementations can fail or "crash"
// at any of those points deterministically.
//
// Three implementations ship:
//
//   - OS — the production passthrough to the real filesystem. It adds
//     no state and no allocations beyond what the os package itself
//     performs, so the disabled path is zero-cost (per the imcf-lint
//     noalloc/determinism discipline; see DESIGN.md §11).
//   - MemFS — an in-memory filesystem with an explicit durability
//     model: file content survives a crash only up to the last Sync,
//     and namespace operations (create, rename, remove) survive only
//     after a SyncDir of the parent directory. Crash() simulates power
//     loss by discarding everything else.
//   - Faulty — a wrapper that consults an Injector before every
//     operation and can return short writes, ENOSPC/EIO, or flip the
//     whole layer into a dead post-crash state.
//
// The kill-at-every-failpoint harnesses in internal/store and
// internal/persistence enumerate the instrumented operations of a
// scripted workload, crash at each one in turn, reboot (MemFS.Crash +
// reopen) and assert that no write acknowledged as durable is lost and
// that reopen always succeeds.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// Op classifies an instrumented file-layer operation. Injectors match
// on it to target specific failpoints.
type Op uint8

// The operation classes the durable layers perform.
const (
	OpOpen Op = iota + 1
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRename
	OpTruncate
	OpRemove
	OpMkdir
	OpSyncDir
	OpReadFile
	OpSize
)

var opNames = [...]string{
	OpOpen:     "open",
	OpRead:     "read",
	OpWrite:    "write",
	OpSync:     "sync",
	OpClose:    "close",
	OpRename:   "rename",
	OpTruncate: "truncate",
	OpRemove:   "remove",
	OpMkdir:    "mkdir",
	OpSyncDir:  "syncdir",
	OpReadFile: "readfile",
	OpSize:     "size",
}

// String returns the op's short name ("write", "syncdir", ...).
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "unknown"
}

// File is the handle surface the durable layers need: sequential reads
// for WAL replay, appends, fsync and close. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem seam. All paths are passed through verbatim;
// implementations may interpret them as real paths (OS) or as keys in
// a virtual namespace (MemFS).
type FS interface {
	// OpenFile opens path with os-style flags (os.O_RDONLY,
	// os.O_CREATE|os.O_WRONLY|os.O_APPEND, ...).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole content of path.
	ReadFile(path string) ([]byte, error)
	// Size reports the current length of the file at path.
	Size(path string) (int64, error)
	// Truncate resizes the file at path (zero-extending when growing).
	Truncate(path string, size int64) error
	// Rename atomically moves oldpath to newpath, replacing any
	// existing file. Durability of the new name requires SyncDir.
	Rename(oldpath, newpath string) error
	// Remove unlinks path.
	Remove(path string) error
	// MkdirAll creates path and its missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making the current set of
	// directory entries (creates, renames, removes) durable.
	SyncDir(dir string) error
}

// OS is the production FS: a stateless passthrough to the os package.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Size implements FS.
func (OS) Size(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Truncate implements FS.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS: it opens the directory and fsyncs the handle,
// committing directory entries (the rename trick every WAL-based store
// relies on).
func (OS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// IsDiskFault reports whether err looks like a persistent media fault —
// out of space or an I/O error — as opposed to a logic or usage error.
// The daemon uses it to decide when to enter read-only degraded mode.
func IsDiskFault(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}

// notExist returns the canonical missing-file error for a virtual path,
// shaped so errors.Is(err, os.ErrNotExist) holds like it does for os.
func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}
