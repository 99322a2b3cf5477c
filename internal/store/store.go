// Package store is a crash-safe, content-addressed result store: the
// persistence substrate under the experiment layer's sweep campaigns.
// Each entry holds one completed sweep cell's serialized result, keyed
// by the SHA-256 digest of a (campaign, cell) pair of strings; the
// experiment layer passes (model fingerprint, run-spec digest), so
// re-running any campaign against the same store directory, from the
// same or a different process, replays completed cells instead of
// re-simulating them, and identical runs are never simulated twice —
// within a campaign, across experiments, or across users.
//
// Durability discipline:
//
//   - Every entry is checksummed (CRC32-Castagnoli over the payload)
//     and self-describing: a metadata line binds the entry to its
//     (campaign, cell) pair, so a renamed, truncated, or bit-flipped file
//     is detected, not trusted.
//   - Writes are atomic: payloads land in a tmp/ staging file, are
//     fsynced, and only then renamed over the final name; the directory
//     is fsynced after the rename. A crash at any instant leaves either
//     the old state or the new entry, never a torn one in place.
//   - Reads verify: every Get re-validates magic, version, key binding,
//     length, and checksum. A corrupt or torn entry is quarantined
//     (moved to quarantine/, preserved for forensics) and reported as a
//     miss, so the caller re-simulates — degrade, never abort, never a
//     silently wrong result.
//   - Recovery is automatic: Open clears staging debris from an
//     interrupted writer and scrubs existing entries, quarantining any
//     that fail validation.
//   - Write failures (disk full, I/O errors, failed renames or fsyncs)
//     disable further writes with a sticky error the caller surfaces
//     once; reads — and the campaign — continue.
//
// Only files matching the store's own naming scheme (64 hex digits +
// ".res") and its tmp/ staging area are ever touched; pointing a
// campaign at a directory with foreign files is safe.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	// Magic identifies an entry file as this store's.
	Magic = "microbank-result-store"
	// Version bumps when the entry layout changes incompatibly.
	Version = 1

	entryExt      = ".res"
	tmpDirName    = "tmp"
	quarDirName   = "quarantine"
	keyHexLen     = sha256.Size * 2
	entryNameLen  = keyHexLen + len(entryExt)
	maxEntryBytes = 64 << 20 // sanity bound on a metadata-declared payload
)

// castagnoli is the CRC32C table; CRC32C has hardware support on every
// target this runs on, so checksumming is effectively free next to the
// JSON encode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stagingSeq uniquifies staging names process-wide: together with the
// pid in the name, two writers — whether two goroutines, two Store
// handles, or two processes sharing the directory — can never collide
// on a staging file.
var stagingSeq atomic.Uint64

// Key returns the content address of a cell: hex SHA-256 over the
// campaign key and the cell address, NUL-separated so the pair is
// unambiguous.
func Key(campaign, cell string) string {
	h := sha256.New()
	h.Write([]byte(campaign))
	h.Write([]byte{0})
	h.Write([]byte(cell))
	return hex.EncodeToString(h.Sum(nil))
}

// meta is the first line of an entry file.
type meta struct {
	Store    string `json:"store"`
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	Cell     string `json:"cell"`
	Len      int    `json:"len"`
	CRC32C   uint32 `json:"crc32c"`
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits        uint64 // Gets served from a validated entry
	Misses      uint64 // Gets with no (valid) entry
	Quarantined uint64 // corrupt/torn entries detected and set aside
	Puts        uint64 // entries durably written this session
}

// Store is one on-disk result store. All methods are safe for
// concurrent use, including by multiple processes sharing the
// directory (writes are atomic renames; last writer of an identical
// key wins with identical content).
type Store struct {
	dir string
	fs  FS

	hits, misses, quarantined, puts atomic.Uint64
	entries                         atomic.Int64 // valid entries known (open scrub + this session's puts)

	mu       sync.Mutex
	disabled error // sticky write-side failure; reads continue
}

// Open opens (creating if needed) the store at dir using fsys (OS when
// nil) and runs the recovery pass: staging debris from interrupted
// writers is removed and every existing entry is validated, with
// corrupt or torn ones quarantined rather than trusted or fatal. The
// quarantined count of the recovery pass is readable via Stats.
func Open(dir string, fsys FS) (*Store, error) {
	if fsys == nil {
		fsys = OS
	}
	s := &Store{dir: dir, fs: fsys}
	for _, d := range []string{dir, s.tmpDir(), s.quarDir()} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) tmpDir() string  { return filepath.Join(s.dir, tmpDirName) }
func (s *Store) quarDir() string { return filepath.Join(s.dir, quarDirName) }

// recover clears tmp/ (an interrupted writer's staging files are
// garbage by construction — anything durable was already renamed out)
// and scrubs every entry, quarantining failures.
func (s *Store) recover() error {
	if tmps, err := s.fs.ReadDir(s.tmpDir()); err == nil {
		for _, de := range tmps {
			// Best effort: a leftover that cannot be removed is inert.
			s.fs.Remove(filepath.Join(s.tmpDir(), de.Name())) //nolint:errcheck
		}
	}
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != entryExt {
			continue // foreign files and our own subdirs are not ours to judge
		}
		if !validEntryName(name) {
			s.quarantine(name)
			continue
		}
		data, rerr := s.fs.ReadFile(filepath.Join(s.dir, name))
		if rerr != nil {
			s.quarantine(name)
			continue
		}
		if _, _, verr := parseEntry(data, name); verr != nil {
			s.quarantine(name)
			continue
		}
		s.entries.Add(1)
	}
	return nil
}

// validEntryName reports whether name is `<64 hex>.res`.
func validEntryName(name string) bool {
	if len(name) != entryNameLen || name[keyHexLen:] != entryExt {
		return false
	}
	for _, c := range name[:keyHexLen] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// parseEntry validates an entry file against its own metadata and its
// filename, returning the metadata and payload.
func parseEntry(data []byte, name string) (meta, []byte, error) {
	var m meta
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return m, nil, fmt.Errorf("no metadata line")
	}
	if err := json.Unmarshal(data[:nl], &m); err != nil {
		return m, nil, fmt.Errorf("metadata: %w", err)
	}
	if m.Store != Magic {
		return m, nil, fmt.Errorf("not a store entry")
	}
	if m.Version != Version {
		return m, nil, fmt.Errorf("entry version %d, this build reads %d", m.Version, Version)
	}
	if m.Len < 0 || m.Len > maxEntryBytes {
		return m, nil, fmt.Errorf("implausible payload length %d", m.Len)
	}
	rest := data[nl+1:]
	// The writer appends exactly payload + '\n'; anything shorter is a
	// torn write, anything longer is corruption.
	if len(rest) != m.Len+1 || rest[m.Len] != '\n' {
		return m, nil, fmt.Errorf("torn payload: have %d bytes, metadata declares %d", len(rest), m.Len)
	}
	payload := rest[:m.Len]
	if crc := crc32.Checksum(payload, castagnoli); crc != m.CRC32C {
		return m, nil, fmt.Errorf("checksum mismatch: payload %08x, metadata %08x", crc, m.CRC32C)
	}
	if want := Key(m.Campaign, m.Cell) + entryExt; name != want {
		return m, nil, fmt.Errorf("key binding mismatch: file %s holds entry for %s", name, want)
	}
	return m, payload, nil
}

// quarantine moves a bad entry aside (preserving it for forensics) and
// counts it. A failed move is still counted — the detection is the
// datum; the file will be re-detected next open.
func (s *Store) quarantine(name string) {
	s.quarantined.Add(1)
	s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(s.quarDir(), name)) //nolint:errcheck
}

// Get returns the validated payload stored for (campaign, cell), or
// ok=false when the entry is absent, unreadable, or fails validation —
// invalid entries are quarantined on the way out, so the caller's
// re-simulation heals the store.
func (s *Store) Get(campaign, cell string) ([]byte, bool) {
	name := Key(campaign, cell) + entryExt
	data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return nil, false
	}
	var m meta
	var payload []byte
	if err == nil {
		m, payload, err = parseEntry(data, name)
	}
	// An unreadable entry (EIO and friends), an invalid one, or one bound
	// to another (campaign, cell) — a copied or planted file, since a
	// SHA-256 preimage collision is not a thing — is set aside, so the
	// rewrite after re-simulation starts from a clean slot.
	if err != nil || m.Campaign != campaign || m.Cell != cell {
		s.quarantine(name)
		s.entries.Add(-1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), payload...), true
}

// Put durably stores payload for (campaign, cell): staged write,
// fsync, atomic rename, directory fsync. On any write-path failure the
// store disables further writes (sticky — the error keeps being
// returned so the caller can warn once and move on) while reads keep
// working; the campaign itself must never fail because its cache
// cannot persist.
func (s *Store) Put(campaign, cell string, payload []byte) error {
	s.mu.Lock()
	if s.disabled != nil {
		err := s.disabled
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	m := meta{
		Store:    Magic,
		Version:  Version,
		Campaign: campaign,
		Cell:     cell,
		Len:      len(payload),
		CRC32C:   crc32.Checksum(payload, castagnoli),
	}
	hdr, err := json.Marshal(m)
	if err != nil {
		return s.disable(err)
	}
	buf := make([]byte, 0, len(hdr)+len(payload)+2)
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	buf = append(buf, payload...)
	buf = append(buf, '\n')

	name := Key(campaign, cell) + entryExt
	tmp := filepath.Join(s.tmpDir(), fmt.Sprintf("%s.%d.%d", name, os.Getpid(), stagingSeq.Add(1)))
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return s.disable(err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()        //nolint:errcheck
		s.fs.Remove(tmp) //nolint:errcheck
		return s.disable(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()        //nolint:errcheck
		s.fs.Remove(tmp) //nolint:errcheck
		return s.disable(err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp) //nolint:errcheck
		return s.disable(err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		s.fs.Remove(tmp) //nolint:errcheck
		return s.disable(err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		// The entry itself is valid and visible; only its durability
		// against power loss is in doubt. Disable further writes and
		// surface that once.
		return s.disable(err)
	}
	s.puts.Add(1)
	s.entries.Add(1)
	return nil
}

// disable records the first write-path failure and returns the sticky
// degraded-state error.
func (s *Store) disable(cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled == nil {
		s.disabled = fmt.Errorf("store: %w (store writes disabled for this process; reads continue)", cause)
	}
	return s.disabled
}

// WriteErr returns the sticky write-path failure, nil while healthy.
func (s *Store) WriteErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disabled
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
		Puts:        s.puts.Load(),
	}
}

// Entries returns the number of valid entries known to this handle
// (validated at open, plus this session's puts, minus quarantines).
func (s *Store) Entries() int {
	n := s.entries.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
