package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lapses/internal/core"
)

// Store is a disk-backed content-addressed result store keyed by
// core.Config.Key: one file per unique configuration, named by the
// SHA-256 of the key, holding the key, the result, and a checksum over
// both. It is the durable layer under the serve job executor (and any
// other sweep, via sweep.Options.Cache — Store implements sweep.Cacher),
// making "never simulate the same point twice" hold across processes,
// restarts and users sharing a store directory.
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
//   - Open runs a recovery scan: leftover temp files are removed,
//     every entry is verified, and corrupt ones are quarantined before
//     the store serves anything.
//   - Do is single-flight within the process: concurrent requests for
//     one key wait for the first instead of simulating twice, exactly
//     like sweep.Cache. Across processes the disk itself dedups —
//     a restarted server serves completed points from the store.
//
// Errors are never cached (a failed simulation retries on the next
// request), and a failed Put degrades to a warning counter rather than
// failing the point: the simulation result is still correct, only its
// durability is lost.
type Store struct {
	dir string

	mu      sync.Mutex
	flights map[string]*storeFlight
	index   map[string]struct{}
	tmpSeq  int64

	scanTime time.Time

	hits        int64
	misses      int64
	quarantined int64
	putFailures int64
	orphanTemps int64
}

// storeFlight is one in-flight simulation other requests wait on.
type storeFlight struct {
	done chan struct{} // closed once res/err are final
	res  core.Result
	err  error
}

// storeEntry is the on-disk JSON schema. Result stays a RawMessage
// through verification so the checksum covers the exact stored bytes.
type storeEntry struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
)

// objName is the content address of a key: SHA-256, hex, ".json".
func objName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// entrySum is the integrity checksum: SHA-256 over the key and the
// result's exact JSON bytes.
func entrySum(key string, result []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// Open opens (creating if necessary) the store rooted at dir and runs
// the recovery scan: interrupted temp files are deleted, every entry is
// checksum-verified, and truncated or corrupt entries are quarantined.
// The returned store serves only entries that passed verification.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:      dir,
		flights:  map[string]*storeFlight{},
		index:    map[string]struct{}{},
		scanTime: time.Now(),
	}
	for _, d := range []string{filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		return nil, fmt.Errorf("serve: store scan: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, objectsDir, name)
		if !strings.HasSuffix(name, ".json") {
			// A temp file from an interrupted write: the rename never
			// happened, so the entry was never promised durable.
			os.Remove(path)
			s.orphanTemps++
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		key, _, err := decodeEntry(raw, name)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		s.index[key] = struct{}{}
	}
	return s, nil
}

// decodeEntry parses and verifies one entry's bytes: well-formed JSON,
// checksum over (key, result bytes) matches, and the filename is the
// key's content address.
func decodeEntry(raw []byte, name string) (string, core.Result, error) {
	var ent storeEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		return "", core.Result{}, fmt.Errorf("truncated or malformed entry: %w", err)
	}
	if ent.Sum != entrySum(ent.Key, ent.Result) {
		return "", core.Result{}, fmt.Errorf("checksum mismatch")
	}
	if objName(ent.Key) != name {
		return "", core.Result{}, fmt.Errorf("entry key does not address its filename")
	}
	var res core.Result
	if err := json.Unmarshal(ent.Result, &res); err != nil {
		return "", core.Result{}, fmt.Errorf("result payload: %w", err)
	}
	return ent.Key, res, nil
}

// quarantine moves a corrupt entry (by object filename) into
// quarantine/, counts it and logs why, so the quarantine count in
// /healthz has an explanation. Failures to move fall back to deletion so
// a corrupt entry can never be served again either way. Callers hold no
// lock ordering obligations; counters are adjusted under mu.
func (s *Store) quarantine(name string, reason error) {
	src := filepath.Join(s.dir, objectsDir, name)
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

// lookup reads and verifies the entry for key. A missing file is a
// plain miss; a corrupt one is quarantined, dropped from the index and
// reported as a miss, so the caller transparently re-simulates.
func (s *Store) lookup(key string) (core.Result, bool) {
	name := objName(key)
	raw, err := os.ReadFile(filepath.Join(s.dir, objectsDir, name))
	if err != nil {
		if !os.IsNotExist(err) {
			s.quarantine(name, err)
		}
		s.dropIndex(key)
		return core.Result{}, false
	}
	gotKey, res, err := decodeEntry(raw, name)
	if err != nil || gotKey != key {
		if err == nil {
			err = fmt.Errorf("entry key mismatch")
		}
		s.quarantine(name, err)
		s.dropIndex(key)
		return core.Result{}, false
	}
	return res, true
}

func (s *Store) dropIndex(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// put durably writes the entry for key: temp file in the objects
// directory, fsync, rename. Only after the rename is the key indexed.
func (s *Store) put(key string, res core.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	data, err := json.Marshal(storeEntry{Key: key, Sum: entrySum(key, payload), Result: payload})
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	name := objName(key)
	s.mu.Lock()
	s.tmpSeq++
	seq := s.tmpSeq
	s.mu.Unlock()
	tmp := filepath.Join(s.dir, objectsDir, fmt.Sprintf("%s.tmp%d", name, seq))
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
	if err := os.Rename(tmp, filepath.Join(s.dir, objectsDir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: store put: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, err := os.Open(filepath.Join(s.dir, objectsDir)); err == nil {
		d.Sync()
		d.Close()
	}
	s.mu.Lock()
	s.index[key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Do returns the stored result for cfg, simulating (and durably
// storing) on a miss. The boolean reports a store hit — served from
// disk or from a concurrent in-flight simulation of the same key.
// Errors are not stored; waiters of a failing in-flight point receive
// its error, and a later request retries. Do implements sweep.Cacher.
//
// The disk is always consulted before a simulation starts, even for
// keys this process has never indexed: when several processes share one
// store directory (the cluster's shared-store topology), an entry
// written by a sibling after this store opened is found and served
// rather than re-simulated. The only cross-process duplication left is
// two processes simulating the same key concurrently — both write the
// same bytes (the simulator is deterministic), so the last rename wins
// harmlessly.
func (s *Store) Do(ctx context.Context, cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, bool, error) {
	key := cfg.Key()
	for {
		s.mu.Lock()
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					// The leader failed; the waiter was not served.
					return f.res, false, f.err
				}
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return f.res, true, nil
			case <-ctx.Done():
				return core.Result{}, false, ctx.Err()
			}
		}
		s.mu.Unlock()
		if res, ok := s.lookup(key); ok {
			s.mu.Lock()
			s.hits++
			s.index[key] = struct{}{}
			s.mu.Unlock()
			return res, true, nil
		}
		// Nothing usable on disk (missing, or corrupt and now
		// quarantined): race for the leader slot and simulate.
		s.mu.Lock()
		if _, ok := s.flights[key]; ok {
			// Another goroutine became leader between the lookup and
			// here; loop to wait on its flight.
			s.mu.Unlock()
			continue
		}
		f := &storeFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.misses++
		s.mu.Unlock()

		f.res, f.err = run(cfg)
		if f.err == nil {
			if perr := s.put(key, f.res); perr != nil {
				// The result is still valid; only durability was lost.
				s.putFailed(key, perr)
			}
		}
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		return f.res, false, f.err
	}
}

// Get returns the stored result for key if a verified entry exists,
// without simulating or joining a flight. It reads through to disk, so
// entries written by sibling processes sharing the directory are found.
// The cluster coordinator uses it to resolve already-stored points of a
// submitted grid before leasing anything out.
func (s *Store) Get(key string) (core.Result, bool) {
	res, ok := s.lookup(key)
	if !ok {
		return core.Result{}, false
	}
	s.mu.Lock()
	s.hits++
	s.index[key] = struct{}{}
	s.mu.Unlock()
	return res, true
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
	if _, err := os.Stat(filepath.Join(s.dir, objectsDir, objName(key))); err == nil {
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
// this process's lookups; Entries the keys currently verified durable;
// Quarantined corrupt entries set aside (at Open or on read);
// PutFailures completed points whose durable write failed. LastScan and
// OrphanTempsRemoved describe the startup recovery scan — surfaced in
// GET /healthz and GET /v1/store so an operator sees silent corruption
// (quarantines, interrupted writes) without grepping logs.
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

// Len is the number of verified durable entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
