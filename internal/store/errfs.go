package store

// ErrFS: the injectable filesystem fault layer. Tests (and the
// durability smokes) wrap a real FS in an ErrFS and arm Faults —
// short writes, ENOSPC, EIO, fsync failures, failed renames — that
// fire deterministically on the Nth matching operation. The store must
// degrade (quarantine, disable, warn) under every one of these, never panic or return a silently wrong result; the fault
// layer is what makes that claim testable.

import (
	"errors"
	"os"
	"strings"
	"sync"
)

// Synthetic disk errors. Defined here rather than as raw syscall
// errnos so fault-injection tests stay portable; the store only ever
// inspects errors with errors.Is(err, os.ErrNotExist), so the exact
// identity of an injected failure is irrelevant to the code under
// test.
var (
	ErrNoSpace   = errors.New("injected: no space left on device")
	ErrIO        = errors.New("injected: input/output error")
	ErrShortSync = errors.New("injected: fsync failed")
)

// Op names an FS operation an injected fault can target.
type Op string

// Fault targets.
const (
	OpOpen    Op = "open"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpClose   Op = "close"
	OpRead    Op = "read"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpMkdir   Op = "mkdir"
	OpReadDir Op = "readdir"
	OpSyncDir Op = "syncdir"
)

// Fault is one armed failure: the Nth (Skip-th, 0-based) operation of
// kind Op whose path contains Match fails with Err. For OpWrite,
// Short > 0 makes the failing write a torn one — Short bytes reach the
// file before the error returns, modeling a partial sector write.
// Count bounds how many matching operations fail (0 means exactly
// one).
type Fault struct {
	Op    Op
	Match string // substring of the operation's path ("" matches all)
	Skip  int    // matching operations to let through first
	Count int    // matching operations to fail (0 = 1)
	Err   error  // error to return (nil defaults to ErrIO)
	Short int    // OpWrite: bytes written before the failure
}

// ErrFS wraps an FS with deterministic fault injection. Safe for
// concurrent use.
type ErrFS struct {
	base FS

	mu     sync.Mutex
	faults []*armedFault
	log    []string // operation log, for test assertions
}

type armedFault struct {
	Fault
	seen  int // matching operations observed so far
	fired int // failures delivered so far
}

// NewErrFS wraps base (OS when nil) with an empty fault set.
func NewErrFS(base FS) *ErrFS {
	if base == nil {
		base = OS
	}
	return &ErrFS{base: base}
}

// Inject arms a fault. Faults are independent; the first armed fault
// that matches an operation decides it.
func (e *ErrFS) Inject(f Fault) {
	if f.Err == nil {
		f.Err = ErrIO
	}
	if f.Count == 0 {
		f.Count = 1
	}
	e.mu.Lock()
	e.faults = append(e.faults, &armedFault{Fault: f})
	e.mu.Unlock()
}

// Ops returns the logged operations (op + path), for assertions about
// what the code under test actually touched.
func (e *ErrFS) Ops() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.log...)
}

// check logs the operation and returns the armed fault that claims it,
// if any.
func (e *ErrFS) check(op Op, path string) *Fault {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log = append(e.log, string(op)+" "+path)
	for _, f := range e.faults {
		if f.Op != op || !strings.Contains(path, f.Match) || f.fired >= f.Count {
			continue
		}
		if f.seen < f.Skip {
			f.seen++
			continue
		}
		f.seen++
		f.fired++
		return &f.Fault
	}
	return nil
}

func (e *ErrFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f := e.check(OpOpen, name); f != nil {
		return nil, f.Err
	}
	file, err := e.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, name: name, f: file}, nil
}

func (e *ErrFS) ReadFile(name string) ([]byte, error) {
	if f := e.check(OpRead, name); f != nil {
		return nil, f.Err
	}
	return e.base.ReadFile(name)
}

func (e *ErrFS) Rename(oldpath, newpath string) error {
	if f := e.check(OpRename, newpath); f != nil {
		return f.Err
	}
	return e.base.Rename(oldpath, newpath)
}

func (e *ErrFS) Remove(name string) error {
	if f := e.check(OpRemove, name); f != nil {
		return f.Err
	}
	return e.base.Remove(name)
}

func (e *ErrFS) MkdirAll(name string, perm os.FileMode) error {
	if f := e.check(OpMkdir, name); f != nil {
		return f.Err
	}
	return e.base.MkdirAll(name, perm)
}

func (e *ErrFS) ReadDir(name string) ([]os.DirEntry, error) {
	if f := e.check(OpReadDir, name); f != nil {
		return nil, f.Err
	}
	return e.base.ReadDir(name)
}

func (e *ErrFS) SyncDir(name string) error {
	if f := e.check(OpSyncDir, name); f != nil {
		return f.Err
	}
	return e.base.SyncDir(name)
}

// errFile threads write/sync/close faults through to an open handle.
type errFile struct {
	fs   *ErrFS
	name string
	f    File
}

func (f *errFile) Write(p []byte) (int, error) {
	if fl := f.fs.check(OpWrite, f.name); fl != nil {
		n := fl.Short
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			// Torn write: part of the payload reaches the file before
			// the failure surfaces.
			if wn, werr := f.f.Write(p[:n]); werr != nil {
				return wn, fl.Err
			}
		}
		return n, fl.Err
	}
	return f.f.Write(p)
}

func (f *errFile) Sync() error {
	if fl := f.fs.check(OpSync, f.name); fl != nil {
		return fl.Err
	}
	return f.f.Sync()
}

func (f *errFile) Close() error {
	if fl := f.fs.check(OpClose, f.name); fl != nil {
		f.f.Close() // release the real handle regardless
		return fl.Err
	}
	return f.f.Close()
}
