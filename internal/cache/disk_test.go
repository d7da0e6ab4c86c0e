package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDiskPutGetAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := result{IPC: 3.0000000000000004, Cycles: 99} // float that exposes sloppy round-trips
	d.Put("deadbeef01", want)
	d.Put("k:with/odd chars", result{IPC: 1, Cycles: 1})
	if v, ok := d.Get("deadbeef01"); !ok || v != want {
		t.Fatalf("round-trip got %+v ok=%v", v, ok)
	}
	if _, ok := d.Get("missing"); ok {
		t.Fatal("miss reported a hit")
	}
	// No temp debris after atomic writes.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	// A new store over the same directory — the restart — serves identical
	// values from their first Get.
	d2, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d2.Get("deadbeef01"); !ok || v != want {
		t.Fatalf("post-restart value %+v ok=%v, want %+v", v, ok, want)
	}
	if v, ok := d2.Get("k:with/odd chars"); !ok || v.Cycles != 1 {
		t.Fatalf("unsafe-name key lost across restart: %+v ok=%v", v, ok)
	}
	if st := d2.Stats(); st.Hits != 2 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("restarted store counted %+v, want 2 hits", st)
	}
}

// TestDiskFileNames: every key's file is "x" + 32 hex digits of its
// SHA-256 + ".json". A job and a checkpoint key are pinned to their file
// names, because a cache directory outlives the build that wrote it; and
// a key spelled like another key's file name is a key of its own.
func TestDiskFileNames(t *testing.T) {
	const job = "v3:1aa752f56d49fa4028752e2a798cdee9:r0:s1:w30000:m60000"
	for key, want := range map[string]string{
		job: "xe06d9b0b4e6a0139cfd679f453f9c742.json",
		"snap:v3:1aa752f56d49fa4028752e2a798cdee9:r0:s1:w30000": "xc2f530ca459049bb1b628a929a03e58a.json",
	} {
		if got := fileNameFor(key); got != want {
			t.Errorf("fileNameFor(%q) = %s, want %s", key, got, want)
		}
	}

	d, err := NewDisk[result](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := job
	sum := sha256.Sum256([]byte(k))
	alias := "x" + hex.EncodeToString(sum[:16])
	d.Put(k, result{Cycles: 1})
	d.Put(alias, result{Cycles: 2})
	if v, ok := d.Get(k); !ok || v.Cycles != 1 {
		t.Fatalf("Get(%q) = %+v, %v after a Put of %q", k, v, ok, alias)
	}
	if v, ok := d.Get(alias); !ok || v.Cycles != 2 {
		t.Fatalf("Get(%q) = %+v, %v", alias, v, ok)
	}
	if st := d.Stats(); st.Corrupt != 0 {
		t.Fatalf("two keys shared a file: %+v", st)
	}
}

// TestDiskCorruptReadsAsMiss: truncated or bit-flipped entry files must
// degrade to misses (costing a re-simulation), never a wrong value or an
// error, and a corrupt file is removed so its refill starts clean.
func TestDiskCorruptReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("aaaa", result{IPC: 1})
	d.Put("bbbb", result{IPC: 2})
	d.Put("cccc", result{IPC: 3})

	// Truncate one entry (the crash-mid-write shape rename prevents, but
	// disks misbehave), bit-flip another inside its value, and drop a
	// non-JSON foreign file in the directory.
	flip := func(key string, f func([]byte) []byte) {
		path := filepath.Join(dir, fileNameFor(key))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip("aaaa", func(b []byte) []byte { return b[:len(b)/2] })
	flip("bbbb", func(b []byte) []byte {
		i := strings.Index(string(b), `"value"`) + 10
		b[i] ^= 0x20
		return b
	})
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get("aaaa"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, ok := d.Get("bbbb"); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if v, ok := d.Get("cccc"); !ok || v.IPC != 3 {
		t.Fatalf("intact entry lost: %+v ok=%v", v, ok)
	}
	if st := d.Stats(); st.Corrupt != 2 {
		t.Fatalf("corrupt counter = %d, want 2", st.Corrupt)
	}
	for _, key := range []string{"aaaa", "bbbb"} {
		if _, err := os.Stat(filepath.Join(dir, fileNameFor(key))); !os.IsNotExist(err) {
			t.Fatalf("corrupt file of %q still there: %v", key, err)
		}
	}
	// A once-corrupt key is re-fillable.
	d.Put("aaaa", result{IPC: 9})
	if v, ok := d.Get("aaaa"); !ok || v.IPC != 9 {
		t.Fatalf("refill after corruption: %+v ok=%v", v, ok)
	}

	// Restart over the directory: the refilled and untouched entries
	// serve, the removed one is a plain miss, the foreign file is never
	// read.
	d2, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get("bbbb"); ok {
		t.Fatal("corrupt entry survived a restart as a hit")
	}
	for key, want := range map[string]float64{"aaaa": 9, "cccc": 3} {
		if v, ok := d2.Get(key); !ok || v.IPC != want {
			t.Fatalf("after restart %q = %+v, %v", key, v, ok)
		}
	}
	if st := d2.Stats(); st.Hits != 2 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("restarted store counted %+v, want 2 hits and 1 plain miss", st)
	}
}

// TestDiskUndecodableValueDropsEntry: a record whose checksum verifies
// but whose value does not decode into V is corrupt like any other bad
// file — a counted miss whose file is removed, so a later Get is a plain
// miss that neither re-reads nor counts it again.
func TestDiskUndecodableValueDropsEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("aaaa", result{IPC: 1})
	if err := os.WriteFile(filepath.Join(dir, fileNameFor("aaaa")), undecodable("aaaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, ok := d.Get("aaaa"); ok {
			t.Fatalf("Get %d served %+v from a value that is not a result", i+1, v)
		}
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Misses != 2 {
		t.Fatalf("after two Gets of an undecodable record: %+v; want corrupt 1, misses 2", st)
	}
}

// undecodable is an envelope for key whose checksum verifies but whose
// value is a JSON string, not a result.
func undecodable(key string) []byte {
	sum := sha256.Sum256([]byte(`"text"`))
	return []byte(`{"key":"` + key + `","sum":"` + hex.EncodeToString(sum[:]) + `","value":"text"}`)
}

// TestDiskBootReadsNothing: opening a store reads no entry. Over a
// directory of undecodable files it counts nothing until a Get, and that
// Get counts the one file it read as corrupt and removes it.
func TestDiskBootReadsNothing(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for _, key := range keys {
		if err := os.WriteFile(filepath.Join(dir, fileNameFor(key)), undecodable(key), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st != (DiskStats{}) {
		t.Fatalf("NewDisk over %d undecodable files counted %+v", len(keys), st)
	}
	if _, ok := d.Get(keys[0]); ok {
		t.Fatal("an undecodable entry served as a hit")
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("one Get of an undecodable entry counted %+v", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(keys)-1 {
		t.Fatalf("%d files left of %d after one corrupt Get, want %d", len(ents), len(keys), len(keys)-1)
	}
}

// TestDiskSharedDirectory: two stores over one directory — two processes,
// or a process and its restarted self — see each other's writes from the
// first Get after them.
func TestDiskSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k"); ok {
		t.Fatal("hit before any Put")
	}
	a.Put("k", result{Cycles: 7})
	if v, ok := b.Get("k"); !ok || v.Cycles != 7 {
		t.Fatalf("second store missed the first one's Put: %+v, %v", v, ok)
	}
	b.Put("k", result{Cycles: 8})
	if v, ok := a.Get("k"); !ok || v.Cycles != 8 {
		t.Fatalf("first store missed the second one's overwrite: %+v, %v", v, ok)
	}
}

// TestDiskConcurrentWarmStart: a store over a populated directory takes
// concurrent Gets and Puts from the start, while a second store over the
// same directory reads the same entries.
func TestDiskConcurrentWarmStart(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = strings.Repeat("ab", 4) + string(rune('a'+i%26)) + "key" + string(rune('a'+i/26))
		seed.Put(keys[i], result{Cycles: int64(i)})
	}

	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				if g%2 == 0 {
					if v, ok := d.Get(k); !ok || v.Cycles != int64(i) {
						t.Errorf("key %s: got %+v, %v, want %d", k, v, ok, i)
					}
				} else {
					d.Put(k, result{Cycles: int64(i)})
				}
			}
		}()
	}
	// A second store over the same directory while traffic flows: every
	// entry it reads verifies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d3, err := NewDisk[result](dir)
		if err != nil {
			t.Error(err)
			return
		}
		for i, k := range keys {
			if v, ok := d3.Get(k); !ok || v.Cycles != int64(i) {
				t.Errorf("second store, key %s: got %+v, %v, want %d", k, v, ok, i)
			}
		}
	}()
	wg.Wait()
	for i, k := range keys {
		if v, ok := d.Get(k); !ok || v.Cycles != int64(i) {
			t.Fatalf("key %s lost after concurrent traffic: %+v ok=%v", k, v, ok)
		}
	}
	if st := d.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent traffic read a torn file: %+v", st)
	}
}

func TestTieredPromotesAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(New[result](2), disk)
	for i, k := range []string{"k1", "k2", "k3"} {
		tiered.Put(k, result{Cycles: int64(i)})
	}
	// Memory holds 2 of 3; the evicted key is still a (disk) hit.
	for i, k := range []string{"k1", "k2", "k3"} {
		if v, ok := tiered.Get(k); !ok || v.Cycles != int64(i) {
			t.Fatalf("key %s: %+v ok=%v", k, v, ok)
		}
	}
	if st := disk.Stats(); st.Hits == 0 {
		t.Fatalf("no disk-tier fallthrough recorded: %+v", st)
	}

	// Restart: a fresh memory tier over the same directory. Every key
	// hits via disk; the promoted copy then serves repeats from memory.
	disk2, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	mem2 := New[result](8)
	tiered2 := NewTiered(mem2, disk2)
	for i, k := range []string{"k1", "k2", "k3"} {
		if v, ok := tiered2.Get(k); !ok || v.Cycles != int64(i) {
			t.Fatalf("post-restart key %s: %+v ok=%v", k, v, ok)
		}
	}
	diskHits := disk2.Stats().Hits
	for _, k := range []string{"k1", "k2", "k3"} {
		tiered2.Get(k)
	}
	if got := disk2.Stats().Hits; got != diskHits {
		t.Fatalf("repeat Gets fell through to disk: %d -> %d", diskHits, got)
	}
	if st := mem2.Stats(); st.Hits < 3 {
		t.Fatalf("promotions did not serve repeats from memory: %+v", st)
	}
}
