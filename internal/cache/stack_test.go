package cache

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/smt"
)

// TestStack drives both tier stacks smtd can configure — memory alone (a
// Tiered with a nil disk) and memory over disk — at both value types it
// stores, through the behaviours the service leans on.
func TestStack(t *testing.T) {
	t.Run("results", func(t *testing.T) {
		testStackShapes(t, func(i int) smt.Results { return smt.Results{Cycles: int64(i), IPC: float64(i) / 4} })
	})
	t.Run("bytes", func(t *testing.T) {
		testStackShapes(t, func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) })
	})
}

func testStackShapes[V any](t *testing.T, val func(i int) V) {
	for _, shape := range []struct {
		name string
		disk bool
	}{
		{"mem", false},
		{"mem+disk", true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var disk *Disk[V]
			if shape.disk {
				var err error
				if disk, err = NewDisk[V](t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			// Two memory slots, so the third write evicts the first.
			s := NewTiered(New[V](2), disk)

			// Write-through: with a disk, a Put survives memory eviction.
			keys := []string{"k000", "k001", "k002"}
			for i, k := range keys {
				s.Put(k, val(i))
			}
			st := s.Stats()
			if st.Memory.Len != 2 || st.Memory.Evictions != 1 {
				t.Fatalf("memory tier after 3 puts into 2 slots: %+v", st.Memory)
			}
			if (st.Disk != nil) != shape.disk {
				t.Fatalf("stats report tiers %+v for shape %s", st, shape.name)
			}
			got, ok := s.Get(keys[0]) // evicted from memory
			if ok != shape.disk {
				t.Fatalf("evicted key: hit=%v on shape %s", ok, shape.name)
			}
			if shape.disk {
				// Disk → memory promotion: the read above came from disk and
				// a repeat is served by memory.
				if !reflect.DeepEqual(got, val(0)) {
					t.Fatalf("disk round trip changed the value: %+v", got)
				}
				before := s.Stats()
				if _, ok := s.Get(keys[0]); !ok {
					t.Fatal("promoted key missed")
				}
				after := s.Stats()
				if after.Disk.Hits != before.Disk.Hits || after.Memory.Hits != before.Memory.Hits+1 {
					t.Fatalf("repeat read was not a memory hit: %+v -> %+v", before, after)
				}
			}
			if _, ok := s.Get("never-stored"); ok {
				t.Fatal("hit on a key nobody stored")
			}
		})
	}
}

// TestStackDiskError: the one construction failure of a tier stack is an
// unusable disk directory.
func TestStackDiskError(t *testing.T) {
	file := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDisk[[]byte](file); err == nil {
		t.Fatal("a regular file was accepted as the cache directory")
	}
}
