package cellstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// File-layout constants. Entries are flat files named <key-id>.cell.json;
// in-flight writes use a .tmp suffix (swept on Open); quarantined entries
// keep their content under a .corrupt suffix for post-mortems.
const (
	entrySuffix   = ".cell.json"
	tmpSuffix     = ".tmp"
	corruptSuffix = ".corrupt"
)

// Put retry policy: a failing write is retried with exponential backoff
// before the store degrades to store-less operation. The backoff sleeps
// through Options.Sleep, so tests run the policy without the wall time.
const (
	putAttempts    = 3
	putBackoffBase = 5 * time.Millisecond
)

// ErrDegraded is returned (wrapped in a StoreError) once a store has
// given up on its directory: every later Put and Get is a silent no-op,
// so the campaign finishes store-less instead of dying on disk errors.
var ErrDegraded = errors.New("cellstore: store degraded to store-less operation")

// StoreError is a structured store-level failure: what operation hit it,
// which entry, and why. Quarantines and degradations are logged as
// StoreErrors through Options.Logf; they never fail the campaign.
type StoreError struct {
	// Op is the store operation: "get", "put", "scan", "open".
	Op string
	// Path is the entry file involved, empty for store-wide failures.
	Path string
	// Key identifies the cell when known.
	Key *Key
	// Quarantined is the path the corrupt entry was moved to, when the
	// error led to a quarantine.
	Quarantined string
	// Err is the underlying cause.
	Err error
}

// Error renders the one-line description.
func (e *StoreError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cellstore: %s", e.Op)
	if e.Path != "" {
		fmt.Fprintf(&b, " %s", e.Path)
	}
	if e.Key != nil {
		fmt.Fprintf(&b, " (%s on %s)", e.Key.Workload, e.Key.Machine)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	if e.Quarantined != "" {
		fmt.Fprintf(&b, " (quarantined to %s)", e.Quarantined)
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *StoreError) Unwrap() error { return e.Err }

// Stats is the store's operation accounting, used for the portbench
// store summary, the resume hit/miss report and the telemetry gauges.
type Stats struct {
	// Hits and Misses count Get outcomes (a quarantined Get is a miss).
	Hits   uint64
	Misses uint64
	// Puts counts entries durably written; PutFailures counts Put calls
	// that exhausted their retries.
	Puts        uint64
	PutFailures uint64
	// Quarantined counts corrupt entries moved aside.
	Quarantined uint64
	// Degraded reports whether the store has shut itself off.
	Degraded bool
}

// Options tunes a store. The zero value is production behaviour.
type Options struct {
	// Fault, when non-nil, injects store-level failures (torn writes,
	// post-write corruption, I/O errors) for robustness testing.
	Fault *Fault
	// Logf, when non-nil, receives one line per noteworthy store event:
	// quarantines, retried writes, degradation. portbench points it at
	// stderr; nil means silent.
	Logf func(format string, args ...any)
	// Sleep implements the Put retry backoff; nil means time.Sleep.
	Sleep func(d time.Duration)
	// noSync skips the fsyncs on the write path. Test-only (unexported,
	// reachable only from this package's tests): the fuzz harness would
	// otherwise pay two fsyncs per exec. It trades away crash safety.
	noSync bool
}

// Store is a durable, content-addressed cell store over one directory.
// It is safe for concurrent use by the experiment runner's worker pool.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	degraded bool

	stats struct {
		hits, misses, puts, putFailures, quarantined uint64
	}
	faultN uint64 // operation counter driving deterministic fault rates
}

// Open opens (creating if necessary) a store over dir. Leftover temp
// files from a previous crash are swept away — they were never visible
// as entries, so removing them is always safe.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &StoreError{Op: "open", Path: dir, Err: err}
	}
	s := &Store{dir: dir, opts: opts}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, &StoreError{Op: "open", Path: dir, Err: err}
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			path := filepath.Join(dir, de.Name())
			if err := os.Remove(path); err == nil {
				s.logf("cellstore: swept stale temp file %s (crashed mid-write)", path)
			}
		}
	}
	return s, nil
}

// logf emits one store event line when a logger is installed.
func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.stats.hits,
		Misses:      s.stats.misses,
		Puts:        s.stats.puts,
		PutFailures: s.stats.putFailures,
		Quarantined: s.stats.quarantined,
		Degraded:    s.degraded,
	}
}

// isDegraded reports the degraded flag under the lock.
func (s *Store) isDegraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// degrade shuts the store off after an unrecoverable failure. Later Gets
// miss and later Puts no-op, so the campaign runs to completion exactly
// as if -store had never been given — correctness over durability.
func (s *Store) degrade(cause *StoreError) {
	s.mu.Lock()
	first := !s.degraded
	s.degraded = true
	s.mu.Unlock()
	if first {
		s.logf("cellstore: WARNING: %v; continuing without the store", cause)
	}
}

// entryPath returns the file path of a key's entry.
func (s *Store) entryPath(k Key) string {
	return filepath.Join(s.dir, k.ID()+entrySuffix)
}

// Get looks a cell up. A missing entry returns (nil, nil) — a plain
// miss. A corrupt entry (unreadable, bad schema, checksum mismatch,
// structural nonsense, or an entry whose stored key disagrees with the
// requested one) is quarantined and also reported as a miss: the campaign
// re-simulates the cell and the next Put replaces the entry. Get only
// returns a non-nil error for the degraded store sentinel, which callers
// may treat as a miss too.
func (s *Store) Get(k Key) (*Entry, error) {
	if s.isDegraded() {
		return nil, nil
	}
	path := s.entryPath(k)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.count(func(st *Store) { st.stats.misses++ })
		return nil, nil
	}
	if err != nil {
		// Unreadable but present (permissions, I/O error): quarantine so
		// the campaign makes progress; if even the rename fails the entry
		// simply stays and the next run retries it.
		s.quarantine("get", path, &k, err)
		return nil, nil
	}
	e, err := DecodeEntry(data)
	if err != nil {
		s.quarantine("get", path, &k, err)
		return nil, nil
	}
	if e.Key != k {
		// A content-addressed store should make this impossible; seeing
		// it means the file was overwritten or the hash scheme changed.
		s.quarantine("get", path, &k, fmt.Errorf("stored key %+v does not match requested %+v", e.Key, k))
		return nil, nil
	}
	s.count(func(st *Store) { st.stats.hits++ })
	return e, nil
}

// Quarantine moves a key's entry aside with an experiments-layer reason
// (e.g. an envelope that verified but whose payload the experiments layer
// cannot decode) and logs the StoreError. The next Get misses and the
// cell is re-simulated.
func (s *Store) Quarantine(k Key, reason error) {
	if s.isDegraded() {
		return
	}
	s.quarantine("get", s.entryPath(k), &k, reason)
}

// quarantine renames a corrupt entry to *.corrupt, logs the error and
// counts the miss.
func (s *Store) quarantine(op, path string, k *Key, cause error) {
	qpath := path + corruptSuffix
	se := &StoreError{Op: op, Path: path, Key: k, Err: cause}
	if err := os.Rename(path, qpath); err == nil {
		se.Quarantined = qpath
	}
	s.mu.Lock()
	s.stats.quarantined++
	s.stats.misses++
	s.mu.Unlock()
	s.logf("cellstore: WARNING: quarantined corrupt entry: %v", se)
}

// count mutates the stats under the lock.
func (s *Store) count(fn func(*Store)) {
	s.mu.Lock()
	fn(s)
	s.mu.Unlock()
}

// Put durably writes one entry. The write is crash-safe — temp file,
// fsync, atomic rename, directory fsync — so a kill at any instant leaves
// either the old state or the complete new entry, never a torn one.
// Failures are retried with backoff; exhausting the retries records the
// failure and degrades the store to store-less operation. Put never
// fails the campaign: the returned error is advisory.
func (s *Store) Put(e *Entry) error {
	if s.isDegraded() {
		return nil
	}
	data, err := EncodeEntry(e)
	if err != nil {
		// An unencodable entry is a caller bug, not a disk failure; do
		// not degrade the store over it.
		return &StoreError{Op: "put", Key: &e.Key, Err: err}
	}
	path := s.entryPath(e.Key)
	var lastErr error
	for attempt := 0; attempt < putAttempts; attempt++ {
		if attempt > 0 {
			s.sleep(putBackoffBase << (attempt - 1))
		}
		if err := s.writeEntry(path, data); err != nil {
			lastErr = err
			s.logf("cellstore: put %s attempt %d/%d failed: %v", path, attempt+1, putAttempts, err)
			continue
		}
		s.faultAfterPut(path, data)
		s.count(func(st *Store) { st.stats.puts++ })
		return nil
	}
	s.count(func(st *Store) { st.stats.putFailures++ })
	se := &StoreError{Op: "put", Path: path, Key: &e.Key,
		Err: fmt.Errorf("%w: %d attempts failed, last: %v", ErrDegraded, putAttempts, lastErr)}
	s.degrade(se)
	return se
}

// sleep applies the configured backoff.
func (s *Store) sleep(d time.Duration) {
	if s.opts.Sleep != nil {
		s.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}

// writeEntry performs one crash-safe write attempt, consulting the fault
// injector for write-path faults (ioerr, torn).
func (s *Store) writeEntry(path string, data []byte) error {
	if s.faultFires(FaultIOErr) {
		return fmt.Errorf("injected I/O error (fault %s)", s.opts.Fault)
	}
	if s.faultFires(FaultTorn) {
		// A torn write models a crash mid-write on a filesystem without
		// atomic rename semantics: the entry becomes visible truncated.
		// Bypass the temp+rename discipline deliberately.
		s.logf("cellstore: fault: tearing write of %s", path)
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*"+tmpSuffix)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any failure past here removes the temp file; the entry path is
	// untouched until the rename.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if !s.opts.noSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if s.opts.noSync {
		return nil
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Not every filesystem supports it; unsupported is not an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// Scan decodes every entry in the store in filename order (deterministic
// across runs) and calls fn for each. Corrupt entries are quarantined
// exactly as Get would, counted, and skipped. The returned count is the
// number of healthy entries visited.
func (s *Store) Scan(fn func(*Entry) error) (int, error) {
	if s.isDegraded() {
		return 0, nil
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, &StoreError{Op: "scan", Path: s.dir, Err: err}
	}
	names := make([]string, 0, len(des))
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			s.quarantine("scan", path, nil, err)
			continue
		}
		e, err := DecodeEntry(data)
		if err != nil {
			s.quarantine("scan", path, nil, err)
			continue
		}
		n++
		if fn != nil {
			if err := fn(e); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// faultFires reports whether the configured fault injector fires for the
// given mode on this operation, advancing the deterministic rate counter.
func (s *Store) faultFires(mode FaultMode) bool {
	f := s.opts.Fault
	if f == nil || f.Mode != mode {
		return false
	}
	s.mu.Lock()
	s.faultN++
	n := s.faultN
	s.mu.Unlock()
	return f.fires(n)
}

// faultAfterPut applies post-write corruption (corrupt mode): flip one
// byte in the middle of the just-written entry, exactly the bit rot the
// checksum exists to catch.
func (s *Store) faultAfterPut(path string, data []byte) {
	if !s.faultFires(FaultCorrupt) {
		return
	}
	s.logf("cellstore: fault: corrupting %s", path)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	off := int64(len(data) / 2)
	b := [1]byte{data[off] ^ 0xff}
	f.WriteAt(b[:], off)
}
