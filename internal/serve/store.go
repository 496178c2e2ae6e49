package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"lapses/internal/bounded"
	"lapses/internal/core"
)

// Store is a disk-backed content-addressed result store keyed by
// core.Config.Key: one file per unique configuration under objects/v<N>/
// (N is core.SemanticsVersion; no other directory is read, so another
// version's answer is a plain miss), named by the SHA-256 of the key,
// holding the key, the result, and a checksum over N and both. It is the
// durable layer under the serve job executor, making "never simulate the
// same point twice" hold across jobs, processes, restarts and users
// sharing a store directory; within one job, the job leases each distinct
// key once.
//
// Crash safety and integrity:
//
//   - Writes are atomic: marshal, write to a temp file in the same
//     directory, fsync, rename. A process killed mid-write leaves only
//     a temp file, never a half-written entry under a live name.
//   - Every entry embeds a SHA-256 checksum over its key and result
//     payload; the filename is itself the SHA-256 of the key. An entry
//     that fails either check — truncated, bit-flipped, or renamed —
//     is quarantined (moved to quarantine/ for post-mortem), dropped
//     from the index, and its key transparently re-simulates on the
//     next request.
//   - Every hit reads the entry's file again, and its exact bytes are
//     what is verified. The checksum and the strict decode run once per
//     distinct content per store: bytes this store has already accepted
//     return the verdict they got (a bounded memo; see memoEntries), so
//     damage that changes even one byte, or another writer's entry under
//     the same name, is read and checked afresh.
//   - Open runs a recovery scan: temp files over a minute old are removed,
//     every entry is verified, and corrupt ones are quarantined before
//     the store serves anything.
//   - A read that fails for want of a resource (descriptors, kernel
//     memory) says nothing about the entry: Open returns the error, and
//     a lookup is a plain miss that leaves the file and the index alone.
//
// Errors are never cached (a failed simulation retries on the next
// request), and a failed Put degrades to a warning counter rather than
// failing the point: the simulation result is still correct, only its
// durability is lost.
type Store struct {
	dir  string
	objs string // dir/objects/v<N>: this version's entries

	mu     sync.Mutex
	index  map[string]struct{}
	tmpSeq int64

	scanTime time.Time

	// verified is the memo of accepted reads, keyed by an entry's exact
	// bytes: a hit returns what readEntry returned for those bytes.
	verified *bounded.Map[string, verdict]

	hits        int64
	misses      int64
	quarantined int64
	putFailures int64
	orphanTemps int64
}

// verdict is readEntry's acceptance of one entry's bytes: the key, the
// result payload (an exact-size copy, shared by every reader and never
// written) and the decoded result.
type verdict struct {
	key     string
	payload []byte
	res     core.Result
}

// memoEntries caps the memo of accepted reads, and memoMaxEntry is the
// largest entry it keeps (a figure-grid entry is about 760 bytes, one
// with a fault list about 1 KB). A memoized entry holds its bytes as the
// map key plus its key, payload and the result's strings, each shorter
// than the entry, and about 512 bytes of fixed size, so the memo holds at
// most 1024 x (3 x 4 KiB + 512 B), about 13 MB; on figure grids it is
// under 2 MB.
const (
	memoEntries  = 1024
	memoMaxEntry = 4 << 10
)

// An entry is one JSON object in exactly one layout, compact:
//
//	{"key":K,"sum":S,"result":R}
//
// K is the key and S the checksum, both strings that need no escaping
// (Config.Key and hex never do); R is the result's JSON (core.Result's
// MarshalJSON). The reader splits an entry by these offsets, so a file in
// any other layout is malformed.
const (
	keyTag    = `{"key":"`
	sumTag    = `","sum":"`
	resultTag = `","result":`
)

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
)

var versionDir = filepath.Join(objectsDir, "v"+strconv.Itoa(core.SemanticsVersion))

// objName is the content address of a key: SHA-256, hex, ".json".
func objName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// entrySum is the integrity checksum: SHA-256 over the semantics
// version, the key and the result's exact JSON bytes.
func entrySum(version int, key string, result []byte) string {
	h := sha256.New()
	h.Write(strconv.AppendInt(nil, int64(version), 10))
	h.Write([]byte{'\n'})
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// staleTemp is the age past which the recovery scan takes a temp file
// for an interrupted write: a write and its fsync take far less.
const staleTemp = time.Minute

// Open opens (creating if necessary) the store rooted at dir and runs
// the recovery scan: stale temp files are deleted, every entry is
// checksum-verified, and truncated or corrupt entries are quarantined.
// The returned store serves only entries that passed verification.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:      dir,
		objs:     filepath.Join(dir, versionDir),
		index:    map[string]struct{}{},
		scanTime: time.Now(),
		verified: bounded.New[string, verdict](memoEntries),
	}
	for _, d := range []string{s.objs, filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
	}
	ents, err := os.ReadDir(s.objs)
	if err != nil {
		return nil, fmt.Errorf("serve: store scan: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(s.objs, name)
		if !strings.HasSuffix(name, ".json") {
			// A temp file: its entry was never promised durable. A young
			// one may be another process's write in flight in a shared
			// directory; only an old one is an interrupted write's.
			if info, err := e.Info(); err == nil && s.scanTime.Sub(info.ModTime()) > staleTemp {
				os.Remove(path)
				s.orphanTemps++
			}
			continue
		}
		raw, err := readFile(path)
		if err != nil && scarce(err) {
			return nil, fmt.Errorf("serve: store scan: %w", err)
		}
		var v verdict
		if err == nil {
			v, err = s.verify(raw)
		}
		if err == nil && objName(v.key) != name {
			err = fmt.Errorf("entry key does not address its filename")
		}
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		s.index[v.key] = struct{}{}
	}
	return s, nil
}

// plain reports whether b reads as itself between JSON quotes: valid
// UTF-8 with no quote, backslash or control character.
func plain(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c == '"' || c == '\\' {
			return false
		}
	}
	return utf8.Valid(b)
}

// encodeEntry lays out the entry for key and a result's JSON payload. It
// refuses a key that would need escaping, which the reader does not
// undo.
func encodeEntry(key string, payload []byte) ([]byte, error) {
	if !plain([]byte(key)) {
		return nil, fmt.Errorf("key %q needs escaping in JSON", key)
	}
	b := []byte(keyTag + key + sumTag + entrySum(core.SemanticsVersion, key, payload) + resultTag)
	return append(append(b, payload...), '}'), nil
}

// parseEntry splits raw, an entry in the layout encodeEntry writes, into
// its key, checksum and result payload, each a slice of raw. It checks
// the layout only: the payload is checked as JSON by the one pass that
// decodes it, Result.UnmarshalJSON, which is strict.
func parseEntry(raw []byte) (key, sum, payload []byte, err error) {
	rest, ok := bytes.CutPrefix(raw, []byte(keyTag))
	if ok {
		key, rest, ok = bytes.Cut(rest, []byte(sumTag))
	}
	if ok {
		sum, rest, ok = bytes.Cut(rest, []byte(resultTag))
	}
	if ok {
		payload, ok = bytes.CutSuffix(rest, []byte("}"))
	}
	if !ok || !plain(key) || !plain(sum) ||
		!bytes.HasPrefix(payload, []byte("{")) || !bytes.HasSuffix(payload, []byte("}")) {
		return nil, nil, nil, fmt.Errorf("truncated or malformed entry")
	}
	return key, sum, payload, nil
}

// readEntry parses and verifies one entry's bytes: the layout, the
// checksum over (key, payload), then one strict decode of the payload as
// a core.Result, which is also the check that the payload is valid JSON.
// The payload is hashed once and scanned once, and returned as a slice
// of raw. Binding the key to the filename is the caller's check.
func readEntry(raw []byte) (string, []byte, core.Result, error) {
	k, sum, payload, err := parseEntry(raw)
	if err != nil {
		return "", nil, core.Result{}, err
	}
	key := string(k)
	if string(sum) != entrySum(core.SemanticsVersion, key, payload) {
		return "", nil, core.Result{}, fmt.Errorf("checksum mismatch")
	}
	var res core.Result
	if err := res.UnmarshalJSON(payload); err != nil {
		return "", nil, core.Result{}, fmt.Errorf("result payload: %w", err)
	}
	return key, payload, res, nil
}

// verify is readEntry through the store's memo: bytes this store has
// already accepted return the verdict readEntry gave them, without being
// hashed or decoded again. Only accepted bytes are remembered.
func (s *Store) verify(raw []byte) (verdict, error) {
	k := string(raw)
	if v, ok := s.verified.Load(k); ok {
		return v, nil
	}
	key, payload, res, err := readEntry(raw)
	if err != nil {
		return verdict{}, err
	}
	v := verdict{key: key, payload: bytes.Clone(payload), res: res}
	if len(raw) <= memoMaxEntry {
		v, _ = s.verified.LoadOrStore(k, v)
	}
	return v, nil
}

// quarantine moves a corrupt entry (by object filename) into
// quarantine/, counts it and logs why, so the quarantine count in
// /healthz has an explanation. Failures to move fall back to deletion so
// a corrupt entry can never be served again either way. Callers hold no
// lock ordering obligations; counters are adjusted under mu.
func (s *Store) quarantine(name string, reason error) {
	src := filepath.Join(s.objs, name)
	dst := filepath.Join(s.dir, quarantineDir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src)
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	log.Printf("store: quarantined %s: %v", name, reason)
}

// lookup reads and verifies the entry for key, returning its result and
// its payload (shared and read-only). A missing file is a plain miss, and
// so is a read that failed for want of a resource, which leaves the file
// and the index alone; a corrupt entry is quarantined, dropped from the
// index and reported as a miss, so the caller transparently re-simulates.
func (s *Store) lookup(key string) (core.Result, []byte, bool) {
	name := objName(key)
	raw, err := readFile(filepath.Join(s.objs, name))
	if err != nil {
		if scarce(err) {
			return core.Result{}, nil, false
		}
		if !os.IsNotExist(err) {
			s.quarantine(name, err)
		}
		s.dropIndex(key)
		return core.Result{}, nil, false
	}
	v, err := s.verify(raw)
	if err == nil && v.key != key {
		err = fmt.Errorf("entry key mismatch")
	}
	if err != nil {
		s.quarantine(name, err)
		s.dropIndex(key)
		return core.Result{}, nil, false
	}
	return v.res, v.payload, true
}

func (s *Store) dropIndex(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// put durably writes the entry for key: temp file in the objects
// directory, fsync, rename. Only after the rename is the key indexed.
func (s *Store) put(key string, res core.Result) error {
	payload, err := res.MarshalJSON()
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	data, err := encodeEntry(key, payload)
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	name := objName(key)
	s.mu.Lock()
	s.tmpSeq++
	seq := s.tmpSeq
	s.mu.Unlock()
	tmp := filepath.Join(s.objs, fmt.Sprintf("%s.tmp%d", name, seq))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: store put: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(s.objs, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: store put: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, err := os.Open(s.objs); err == nil {
		d.Sync()
		d.Close()
	}
	s.mu.Lock()
	s.index[key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Do returns the stored result for cfg, simulating (and durably
// storing) on a miss. The boolean reports a store hit. Errors are not
// stored, so a later request retries. Nothing here waits, so the context
// is not consulted: a caller checks it before asking.
//
// The disk is always consulted before a simulation starts, even for
// keys this process has never indexed: when several processes share one
// store directory (the cluster's shared-store topology), an entry
// written by a sibling after this store opened is found and served
// rather than re-simulated. Two calls that miss the same key at once,
// in one process or two, both simulate: they write the same bytes (the
// simulator is deterministic), so the last rename wins harmlessly.
func (s *Store) Do(_ context.Context, cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, bool, error) {
	key := cfg.Key()
	if res, _, ok := s.lookup(key); ok {
		s.hit(key)
		return res, true, nil
	}
	// Nothing usable on disk (missing, or corrupt and now quarantined).
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	res, err := run(cfg)
	if err == nil {
		if perr := s.put(key, res); perr != nil {
			// The result is still valid; only durability was lost.
			s.putFailed(key, perr)
		}
	}
	return res, false, err
}

// Get returns the stored result for key if a verified entry exists,
// without simulating. It reads through to disk, so
// entries written by sibling processes sharing the directory are found.
func (s *Store) Get(key string) (core.Result, bool) {
	res, _, ok := s.lookup(key)
	if ok {
		s.hit(key)
	}
	return res, ok
}

// getJSON is Get for a caller that serves the result rather than reads
// it: the verified payload, an exact-size slice that the caller must not
// write (the memo may share it). The server resolves already-stored
// points of a submitted grid with it before leasing anything out.
func (s *Store) getJSON(key string) ([]byte, bool) {
	_, payload, ok := s.lookup(key)
	if !ok {
		return nil, false
	}
	s.hit(key)
	return payload, true
}

// hit counts a lookup served from disk and indexes its key.
func (s *Store) hit(key string) {
	s.mu.Lock()
	s.hits++
	s.index[key] = struct{}{}
	s.mu.Unlock()
}

// Ensure makes res durable under key if no entry exists yet. The
// cluster coordinator calls it for every worker-reported result so the
// coordinator's store stays authoritative even when workers persist to
// their own directories; under a shared directory the entry usually
// already exists and Ensure is a no-op. A failed write degrades to the
// PutFailures counter exactly like Do's put path — the in-memory result
// is still correct, only durability was lost.
func (s *Store) Ensure(key string, res core.Result) {
	s.mu.Lock()
	_, indexed := s.index[key]
	s.mu.Unlock()
	if indexed {
		return
	}
	if _, err := os.Stat(filepath.Join(s.objs, objName(key))); err == nil {
		// A sibling process already wrote it; index and move on.
		s.mu.Lock()
		s.index[key] = struct{}{}
		s.mu.Unlock()
		return
	}
	if err := s.put(key, res); err != nil {
		s.putFailed(key, err)
	}
}

// putFailed counts a completed point whose durable write failed and logs
// which one, so operators see the disk problem instead of a bare counter.
func (s *Store) putFailed(key string, err error) {
	s.mu.Lock()
	s.putFailures++
	s.mu.Unlock()
	log.Printf("store: result of %s is not durable: %v", key, err)
}

// StoreStats is a point-in-time counter snapshot. Hits and Misses count
// this process's lookups; a hit is one read of the entry's file whose
// bytes verified (checksummed and decoded the first time this store saw
// those exact bytes, recognised after that), and a job reads each
// distinct stored key of its grid once, so a grid that repeats a stored
// point counts fewer hits than cached points. Entries counts the
// keys currently verified durable; Quarantined corrupt entries set aside
// (at Open or on read); PutFailures completed points whose durable write
// failed. LastScan and OrphanTempsRemoved describe the startup recovery
// scan — surfaced in GET /healthz and GET /v1/store so an operator sees
// silent corruption (quarantines, interrupted writes) without grepping
// logs.
type StoreStats struct {
	Entries            int       `json:"entries"`
	Hits               int64     `json:"hits"`
	Misses             int64     `json:"misses"`
	Quarantined        int64     `json:"quarantined"`
	PutFailures        int64     `json:"put_failures"`
	LastScan           time.Time `json:"last_scan"`
	OrphanTempsRemoved int64     `json:"orphan_temps_removed"`
}

// Stats returns the current counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:            len(s.index),
		Hits:               s.hits,
		Misses:             s.misses,
		Quarantined:        s.quarantined,
		PutFailures:        s.putFailures,
		LastScan:           s.scanTime,
		OrphanTempsRemoved: s.orphanTemps,
	}
}
