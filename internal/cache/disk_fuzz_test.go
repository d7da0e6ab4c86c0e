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

// FuzzDiskRecord: arbitrary bytes in an entry's file never panic the
// read path, and are served only when they verify — the embedded key is
// the one asked for and the checksum covers the value bytes returned.
// Anything else is a miss counted in Corrupt that removes the file. A
// restart reads nothing until asked, then answers as the first store did.
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
	intact, err := os.ReadFile(filepath.Join(seedDir, fileNameFor("aaaa")))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[strings.Index(string(flipped), `"value"`)+10] ^= 0x20
	f.Add(intact)
	f.Add(intact[:len(intact)/2])
	f.Add(flipped)
	f.Add([]byte(strings.Replace(string(intact), `"aaaa"`, `"bbbb"`, 1)))
	f.Add(undecodable("aaaa"))
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
		path := filepath.Join(dir, fileNameFor("aaaa"))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}

		rec, ok := decodeRecord(body)
		if ok {
			sum := sha256.Sum256(rec.Value)
			if rec.Key == "" || hex.EncodeToString(sum[:]) != rec.Sum {
				t.Fatalf("decodeRecord accepted a record that does not verify: %+v", rec)
			}
		}
		// What Get may return: the verified value of the key asked for,
		// decoded, and nothing else.
		var want result
		wantHit := ok && rec.Key == "aaaa" && json.Unmarshal(rec.Value, &want) == nil
		if !wantHit {
			want = result{}
		}
		got, hit := d.Get("aaaa")
		if hit != wantHit || got != want {
			t.Fatalf("Get = %+v, %v; the file verifies to %+v, %v", got, hit, want, wantHit)
		}
		st := d.Stats()
		if hit && (st.Hits != 1 || st.Corrupt != 0) || !hit && (st.Misses != 1 || st.Corrupt != 1) {
			t.Fatalf("hit=%v counted as %+v", hit, st)
		}
		// A corrupt entry's file is gone: asking again is a plain miss,
		// not a second read of the same bad file.
		if !hit {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("a corrupt entry's file survived its Get: %v", err)
			}
			if _, again := d.Get("aaaa"); again {
				t.Fatal("a second Get served what the first refused")
			}
			if st := d.Stats(); st.Misses != 2 || st.Corrupt != 1 {
				t.Fatalf("second Get of a corrupt entry counted as %+v", st)
			}
		}

		// The restart, over the same bytes: nothing is read or counted
		// before a Get, and the Get answers as the first store's did.
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := NewDisk[result](dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := d2.Stats(); st != (DiskStats{}) {
			t.Fatalf("a restart counted %+v before any Get", st)
		}
		if got, hit := d2.Get("aaaa"); hit != wantHit || got != want {
			t.Fatalf("after restart Get = %+v, %v; want %+v, %v", got, hit, want, wantHit)
		}
	})
}
