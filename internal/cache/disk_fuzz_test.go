package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDiskRecord: arbitrary bytes in an indexed entry's file never panic
// the read path, and are served only when they verify — the embedded key
// is the one asked for and the checksum covers the value bytes returned.
// Anything else is a miss counted in Corrupt, at runtime (Get) and at boot
// (NewDisk's scan of the same directory).
func FuzzDiskRecord(f *testing.F) {
	// The corpus is what the disk tests leave on disk: an intact record,
	// the same truncated, bit-flipped inside its value, re-keyed, a record
	// whose value is not a V, and foreign debris.
	seedDir := f.TempDir()
	seed, err := NewDisk[result](seedDir)
	if err != nil {
		f.Fatal(err)
	}
	seed.Put("aaaa", result{IPC: 3.0000000000000004, Cycles: 99})
	intact, err := os.ReadFile(filepath.Join(seedDir, "aaaa.json"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[strings.Index(string(flipped), `"value"`)+10] ^= 0x20
	sum := sha256.Sum256([]byte(`"text"`))
	f.Add(intact)
	f.Add(intact[:len(intact)/2])
	f.Add(flipped)
	f.Add([]byte(strings.Replace(string(intact), `"aaaa"`, `"bbbb"`, 1)))
	f.Add([]byte(`{"key":"aaaa","sum":"` + hex.EncodeToString(sum[:]) + `","value":"text"}`))
	f.Add([]byte(`{"key":"","sum":"","value":null}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		d, err := NewDisk[result](dir)
		if err != nil {
			t.Fatal(err)
		}
		d.Put("aaaa", result{IPC: 1})
		path := filepath.Join(dir, "aaaa.json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}

		rec, ok := readRecord(path)
		if ok {
			sum := sha256.Sum256(rec.Value)
			if rec.Key == "" || hex.EncodeToString(sum[:]) != rec.Sum {
				t.Fatalf("readRecord accepted a record that does not verify: %+v", rec)
			}
		}
		// servable is what Get may return for key: the verified value,
		// decoded, and nothing else.
		servable := func(key string) (result, bool) {
			var v result
			if !ok || rec.Key != key || json.Unmarshal(rec.Value, &v) != nil {
				return result{}, false
			}
			return v, true
		}

		want, wantHit := servable("aaaa")
		got, hit := d.Get("aaaa")
		if hit != wantHit || got != want {
			t.Fatalf("Get = %+v, %v; the file verifies to %+v, %v", got, hit, want, wantHit)
		}
		st := d.Stats()
		if hit && (st.Hits != 1 || st.Corrupt != 0) || !hit && (st.Misses != 1 || st.Corrupt != 1) {
			t.Fatalf("hit=%v counted as %+v", hit, st)
		}

		// The restart: the boot scan indexes the file under the key it
		// embeds when it verifies, and counts it corrupt when it does not.
		d2, err := NewDisk[result](dir)
		if err != nil {
			t.Fatal(err)
		}
		st = d2.Stats()
		if ok && (st.Warm != 1 || st.Corrupt != 0) || !ok && (st.Warm != 0 || st.Corrupt != 1) {
			t.Fatalf("boot scan of a file that verifies=%v counted %+v", ok, st)
		}
		if ok {
			want, wantHit := servable(rec.Key)
			if got, hit := d2.Get(rec.Key); hit != wantHit || got != want {
				t.Fatalf("after restart Get(%q) = %+v, %v; want %+v, %v", rec.Key, got, hit, want, wantHit)
			}
		}
	})
}
