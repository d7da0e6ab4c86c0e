package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskStats is a snapshot of a disk tier's effectiveness counters.
type DiskStats struct {
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Corrupt int64  `json:"corrupt"` // reads that failed integrity checks (each served as a miss)
	Entries int    `json:"entries"`
	Warm    int    `json:"warm"` // entries recovered by the boot scan
	Dir     string `json:"dir"`
}

// Disk is a durable content-addressed store: one file per key under a
// directory, so results survive process restarts. It satisfies Getter[V]
// and slots under an in-memory Store as the slow tier of a Tiered cache.
//
// Durability discipline:
//
//   - Fills are atomic: the value is written to a temp file in the same
//     directory, fsynced, then renamed over the final name. A crash —
//     SIGKILL, power loss — mid-fill leaves at most a temp file the next
//     boot ignores, never a half-written entry under a live name.
//   - Every file embeds its key and a SHA-256 of the value bytes; a read
//     whose checksum, key, or JSON does not verify is served as a miss
//     (and counted in Stats().Corrupt), so a truncated or bit-flipped
//     file degrades to a re-simulation instead of a wrong result.
//   - Boot warm-starts: NewDisk scans the directory and indexes every
//     entry that verifies, so a restarted process serves its previous
//     life's results without re-simulating anything.
//
// The store is unbounded — eviction is the front tier's job; disk entries
// are a few KB each and the deployment owns the directory's quota.
type Disk[V any] struct {
	dir string

	mu        sync.Mutex
	index     map[string]string // key -> file name (relative to dir)
	hits      int64
	misses    int64
	corrupt   int64
	warm      int
	transform func(key string, body []byte) []byte // test-only write mangler
}

// diskRecord is the on-disk envelope: the key it was stored under (file
// names are lossy for unusual keys) and an integrity checksum over the
// raw value bytes.
type diskRecord struct {
	Key   string          `json:"key"`
	Sum   string          `json:"sum"` // sha256 hex of Value
	Value json.RawMessage `json:"value"`
}

// NewDisk opens (creating if needed) a disk store rooted at dir and
// warm-starts it: every verifiable entry already present is indexed and
// served as a hit from the first Get. Unverifiable files are skipped —
// a crash-truncated entry costs one re-simulation, nothing more.
func NewDisk[V any](dir string) (*Disk[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk[V]{dir: dir, index: make(map[string]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue // temp files and foreign debris
		}
		rec, ok := readRecord(filepath.Join(dir, name))
		if !ok {
			d.corrupt++
			continue
		}
		d.index[rec.Key] = name
	}
	d.warm = len(d.index)
	return d, nil
}

// Get reads the value stored under key, verifying integrity; any
// corruption — truncation, bit flips, a foreign file under the right
// name — reports a miss.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	d.mu.Lock()
	name, ok := d.index[key]
	if !ok {
		d.misses++
		d.mu.Unlock()
		return zero, false
	}
	d.mu.Unlock()

	// Read outside the lock: file I/O must not serialize the whole store.
	rec, ok := readRecord(filepath.Join(d.dir, name))
	var v V
	if !ok || rec.Key != key || json.Unmarshal(rec.Value, &v) != nil {
		d.mu.Lock()
		d.corrupt++
		d.misses++
		if d.index[key] == name {
			delete(d.index, key) // do not re-read a file known bad
		}
		d.mu.Unlock()
		return zero, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	return v, true
}

// Put durably stores val under key via temp-file + rename, replacing any
// existing entry. Failures are dropped — a cache that cannot persist
// degrades to a smaller cache, it does not fail the simulation that
// produced the value.
func (d *Disk[V]) Put(key string, val V) {
	raw, err := json.Marshal(val)
	if err != nil {
		return
	}
	sum := sha256.Sum256(raw)
	rec := diskRecord{Key: key, Sum: hex.EncodeToString(sum[:]), Value: raw}
	body, err := json.Marshal(rec)
	if err != nil {
		return
	}
	d.mu.Lock()
	if d.transform != nil {
		body = d.transform(key, body)
	}
	d.mu.Unlock()
	name := fileNameFor(key)
	f, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return
	}
	tmp := f.Name()
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	// Sync before rename: the rename must never become visible pointing
	// at data the filesystem has not committed.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		os.Remove(tmp)
		return
	}
	d.mu.Lock()
	d.index[key] = name
	d.mu.Unlock()
}

// SetWriteTransform installs a hook that may rewrite the serialized
// envelope just before it hits the disk; nil clears it. This is the
// chaos suite's corrupt-write injection point — a transform that mangles
// bytes produces exactly the torn or bit-rotted files the read-side
// checksums exist to catch, proving a corrupted fill degrades to a miss
// instead of a wrong result. Production code never calls this.
func (d *Disk[V]) SetWriteTransform(f func(key string, body []byte) []byte) {
	d.mu.Lock()
	d.transform = f
	d.mu.Unlock()
}

// Stats returns a snapshot of the disk tier's counters.
func (d *Disk[V]) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Hits:    d.hits,
		Misses:  d.misses,
		Corrupt: d.corrupt,
		Entries: len(d.index),
		Warm:    d.warm,
		Dir:     d.dir,
	}
}

// readRecord loads and verifies one entry file; ok is false for any
// unreadable, truncated, or checksum-failing file.
func readRecord(path string) (diskRecord, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return diskRecord{}, false
	}
	var rec diskRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return diskRecord{}, false
	}
	sum := sha256.Sum256(rec.Value)
	if rec.Key == "" || hex.EncodeToString(sum[:]) != rec.Sum {
		return diskRecord{}, false
	}
	return rec, true
}

// fileNameFor maps a key to a file name. Fingerprint keys (hex digests)
// map to themselves for debuggability — `ls` of a cache dir shows content
// addresses — while anything with unsafe or oversized characters is
// hashed. Collisions between the two namespaces are harmless: the record
// embeds the real key and Get verifies it.
func fileNameFor(key string) string {
	safe := len(key) > 0 && len(key) <= 64
	for i := 0; safe && i < len(key); i++ {
		c := key[i]
		safe = c == '-' || c == '_' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	}
	if safe {
		return key + ".json"
	}
	sum := sha256.Sum256([]byte(key))
	return "x" + hex.EncodeToString(sum[:16]) + ".json"
}
