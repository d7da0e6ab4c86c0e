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

	// A new store over the same directory — the restart — warm-starts with
	// every entry and serves identical values.
	d2, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Stats()
	if st.Warm != 2 || st.Entries != 2 {
		t.Fatalf("warm start recovered %d/%d entries, want 2/2", st.Warm, st.Entries)
	}
	if v, ok := d2.Get("deadbeef01"); !ok || v != want {
		t.Fatalf("post-restart value %+v ok=%v, want %+v", v, ok, want)
	}
	if v, ok := d2.Get("k:with/odd chars"); !ok || v.Cycles != 1 {
		t.Fatalf("unsafe-name key lost across restart: %+v ok=%v", v, ok)
	}
}

// TestDiskCorruptReadsAsMiss: truncated or bit-flipped entry files must
// degrade to misses (costing a re-simulation), never a wrong value or an
// error — both when hit at runtime and when scanned at boot.
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
	flip := func(name string, f func([]byte) []byte) {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip("aaaa.json", func(b []byte) []byte { return b[:len(b)/2] })
	flip("bbbb.json", func(b []byte) []byte {
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
	// A once-corrupt key is re-fillable.
	d.Put("aaaa", result{IPC: 9})
	if v, ok := d.Get("aaaa"); !ok || v.IPC != 9 {
		t.Fatalf("refill after corruption: %+v ok=%v", v, ok)
	}

	// Boot over the damaged directory: corrupt and foreign files are
	// skipped, intact entries recovered.
	d2, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Stats()
	// aaaa was refilled above (intact again), cccc never touched; bbbb is
	// still bit-flipped and junk.json never parses — both skipped.
	if st.Warm != 2 {
		t.Fatalf("warm start recovered %d entries, want 2", st.Warm)
	}
	if _, ok := d2.Get("bbbb"); ok {
		t.Fatal("corrupt entry survived a restart as a hit")
	}
}

// TestDiskUndecodableValueDropsEntry: a record whose checksum verifies
// but whose value does not decode into V is corrupt like any other bad
// file — a counted miss that leaves the index, so later Gets neither
// re-read the file nor count it again, and Entries stops counting it.
func TestDiskUndecodableValueDropsEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("aaaa", result{IPC: 1})
	sum := sha256.Sum256([]byte(`"text"`))
	body := `{"key":"aaaa","sum":"` + hex.EncodeToString(sum[:]) + `","value":"text"}`
	if err := os.WriteFile(filepath.Join(dir, "aaaa.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, ok := d.Get("aaaa"); ok {
			t.Fatalf("Get %d served %+v from a value that is not a result", i+1, v)
		}
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("after two Gets of an undecodable record: %+v; want corrupt 1, misses 2, entries 0", st)
	}
}

// TestDiskConcurrentWarmStart: a freshly warm-started store must take
// concurrent Gets and Puts immediately — the boot path shares no state
// with runtime access that the race detector could object to — and a
// second store scanning the directory mid-traffic must not explode.
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
					if v, ok := d.Get(k); ok && v.Cycles != int64(i) {
						t.Errorf("key %s: got %d, want %d", k, v.Cycles, i)
					}
				} else {
					d.Put(k, result{Cycles: int64(i)})
				}
			}
		}()
	}
	// A concurrent boot scan over the same directory while traffic flows:
	// every entry it indexes must verify.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d3, err := NewDisk[result](dir)
		if err != nil {
			t.Error(err)
			return
		}
		if st := d3.Stats(); st.Warm == 0 {
			t.Error("concurrent warm start found nothing")
		}
	}()
	wg.Wait()
	for i, k := range keys {
		if v, ok := d.Get(k); !ok || v.Cycles != int64(i) {
			t.Fatalf("key %s lost after concurrent traffic: %+v ok=%v", k, v, ok)
		}
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

// TestDiskWriteTransformCorruptionDetected: the chaos suite's
// corrupt-write hook mangles envelopes on their way to disk; every such
// write must be caught by the read-side checksum and served as a miss —
// never a wrong value — and a clean refill must recover the key.
func TestDiskWriteTransformCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk[result](dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetWriteTransform(func(key string, body []byte) []byte {
		mangled := append([]byte(nil), body...)
		for i := len(mangled) / 2; i < len(mangled) && i < len(mangled)/2+8; i++ {
			mangled[i] = 0
		}
		return mangled
	})
	d.Put("feedface", result{IPC: 4})
	if _, ok := d.Get("feedface"); ok {
		t.Fatal("corrupted write served as a hit")
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	d.SetWriteTransform(nil)
	d.Put("feedface", result{IPC: 4})
	if v, ok := d.Get("feedface"); !ok || v.IPC != 4 {
		t.Fatalf("clean refill after corrupt write: %+v ok=%v", v, ok)
	}
}
