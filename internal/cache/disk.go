package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// DiskStats is a snapshot of a disk tier's effectiveness counters.
type DiskStats struct {
	Hits    int64
	Misses  int64
	Corrupt int64 // reads that failed integrity checks (each served as a miss)
}

// Disk is a durable content-addressed store: one file per key under a
// directory, so results survive process restarts. It satisfies Getter[V]
// and slots under an in-memory Store as the slow tier of a Tiered cache.
//
// The directory is the whole store: a key's file name is a hash of the
// key, so Get opens that one file and nothing is read, listed or indexed
// at construction. A restarted process serves its previous life's entries
// from their first Get, and any number of Disks — in one process or many —
// may share a directory and see each other's writes.
//
// Durability discipline:
//
//   - Fills are atomic: the value is written to a temp file in the same
//     directory, fsynced, then renamed over the final name. A crash —
//     SIGKILL, power loss — mid-fill leaves at most a temp file no key
//     names, never a half-written entry under a live name.
//   - Every file embeds its key and a SHA-256 of the value bytes; a read
//     whose envelope, checksum, key, or value does not verify is served as
//     a miss, counted in Stats().Corrupt, and its file removed, so a
//     truncated or bit-flipped file degrades to one re-simulation whose
//     fill rewrites it.
//
// The store is unbounded — eviction is the front tier's job; disk entries
// are a few KB each and the deployment owns the directory's quota.
type Disk[V any] struct {
	dir                   string
	hits, misses, corrupt atomic.Int64
}

// diskRecord is the on-disk envelope: the key it was stored under (the
// file name is only its hash) and an integrity checksum over the raw
// value bytes.
type diskRecord struct {
	Key   string          `json:"key"`
	Sum   string          `json:"sum"` // sha256 hex of Value
	Value json.RawMessage `json:"value"`
}

// NewDisk opens a disk store rooted at dir, creating the directory if
// needed; it reads nothing already there.
func NewDisk[V any](dir string) (*Disk[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Disk[V]{dir: dir}, nil
}

// Get reads the value stored under key, verifying integrity. A key whose
// file cannot be read — in the common case, there is none — is a miss; a
// file that does not verify — truncation, bit flips, a foreign file under
// the right name — is a counted corrupt miss, and is removed.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	path := filepath.Join(d.dir, fileNameFor(key))
	raw, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return zero, false
	}
	rec, ok := decodeRecord(raw)
	var v V
	if !ok || rec.Key != key || json.Unmarshal(rec.Value, &v) != nil {
		d.corrupt.Add(1)
		d.misses.Add(1)
		os.Remove(path) // the re-simulated fill rewrites it
		return zero, false
	}
	d.hits.Add(1)
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
	body, err := json.Marshal(diskRecord{Key: key, Sum: hex.EncodeToString(sum[:]), Value: raw})
	if err != nil {
		return
	}
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
	if err := os.Rename(tmp, filepath.Join(d.dir, fileNameFor(key))); err != nil {
		os.Remove(tmp)
	}
}

// Stats returns a snapshot of the disk tier's counters.
func (d *Disk[V]) Stats() DiskStats {
	return DiskStats{
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Corrupt: d.corrupt.Load(),
	}
}

// decodeRecord parses and verifies one entry file's bytes; ok is false
// for anything that is not an envelope whose checksum covers its value.
func decodeRecord(raw []byte) (diskRecord, bool) {
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

// fileNameFor maps a key to its file name: "x", the first 16 bytes of the
// key's SHA-256 in hex, ".json". Distinct keys share a name only on a
// hash collision, and the record's embedded key makes even that a miss.
func fileNameFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "x" + hex.EncodeToString(sum[:16]) + ".json"
}
