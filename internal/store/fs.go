package store

// The filesystem seam. Every disk operation the store performs goes
// through the FS interface, so durability logic can be tested against
// an injectable fault layer (ErrFS) without touching the real disk
// error paths: short writes, ENOSPC, EIO,
// fsync failures, and rename races all become deterministic test
// inputs instead of hardware lottery tickets.

import (
	"io"
	"os"
)

// File is the writable handle FS.OpenFile returns: sequential writes,
// an explicit durability barrier (Sync), and Close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the narrow filesystem surface the persistence layer needs.
// Implementations must return errors compatible with errors.Is /
// os.IsNotExist for missing files.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics (flag is the usual
	// os.O_* bitmask).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically moves oldpath over newpath (POSIX semantics:
	// an existing newpath is replaced).
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates name and any missing parents.
	MkdirAll(name string, perm os.FileMode) error
	// ReadDir lists name.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable against power loss.
	SyncDir(name string) error
}

// OS is the real-filesystem FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }

// SyncDir opens the directory read-only and fsyncs it. Filesystems
// that do not support directory fsync (some network mounts) report
// EINVAL; that is surfaced to the caller, which degrades gracefully.
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
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
