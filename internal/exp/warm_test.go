package exp

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/snapshot"
)

// mapSnapshots is the minimal in-memory SnapshotStore for tests.
type mapSnapshots struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapSnapshots() *mapSnapshots { return &mapSnapshots{m: map[string][]byte{}} }

func (s *mapSnapshots) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return d, ok
}

func (s *mapSnapshots) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
}

func warmTestOpts() Opts { return Opts{Runs: 2, Warmup: 3_000, Measure: 5_000, Seed: 1} }

// The acceleration contract: SimulateEnv with any combination of snapshot
// store and trace cache returns bytes identical to the plain kernel — on the
// cold fill pass and on the warm restore pass.
func TestSimulateEnvMatchesSimulate(t *testing.T) {
	o := warmTestOpts()
	cfg := ICount28(4)
	want := Simulate(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil)

	store := snapshot.NewStore(newMapSnapshots())
	env := WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}

	cold := SimulateEnv(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil, env)
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold SimulateEnv differs from Simulate:\n got %+v\nwant %+v", cold, want)
	}
	if st := store.Stats(); st.Misses != 1 || st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("cold pass store stats = %+v, want 1 miss + 1 put", st)
	}

	warm := SimulateEnv(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil, env)
	if !reflect.DeepEqual(warm, want) {
		t.Fatalf("warm SimulateEnv differs from Simulate:\n got %+v\nwant %+v", warm, want)
	}
	if st := store.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("warm pass store stats = %+v, want the restore to hit without re-warming", st)
	}
	if ts := env.Traces.Stats(); ts.Builds != int64(cfg.Threads) || ts.Reuses < int64(cfg.Threads) {
		t.Fatalf("trace cache stats = %+v, want one build per context shared by both passes", ts)
	}
}

// A different configuration sharing the rotation must share the context
// traces but not the snapshot key.
func TestWarmEnvKeysSeparateConfigs(t *testing.T) {
	o := warmTestOpts()
	store := snapshot.NewStore(newMapSnapshots())
	env := WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}

	a := MustFetchScheme(4, "ICOUNT", 2, 8)
	b := MustFetchScheme(4, "RR", 2, 8)
	wantA := Simulate(a, 0, JobSeed(o.Seed, 0), o, 0, nil)
	wantB := Simulate(b, 0, JobSeed(o.Seed, 0), o, 0, nil)

	if got := SimulateEnv(a, 0, JobSeed(o.Seed, 0), o, 0, nil, env); !reflect.DeepEqual(got, wantA) {
		t.Fatal("config A differs under warm env")
	}
	if got := SimulateEnv(b, 0, JobSeed(o.Seed, 0), o, 0, nil, env); !reflect.DeepEqual(got, wantB) {
		t.Fatal("config B differs under warm env")
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != 2 || st.Puts != 2 {
		t.Fatalf("store stats = %+v, want distinct configs to miss separately", st)
	}
	if ts := env.Traces.Stats(); ts.Builds != int64(a.Threads) {
		t.Fatalf("trace cache built %d context traces, want %d shared across configs", ts.Builds, a.Threads)
	}
}

// A full parallel sweep through Dispatch: WarmEnv{Snapshots, Traces} must
// emit the exact bytes of an unaccelerated sweep — run twice, so the second
// pass exercises the all-restored path.
func TestRunnerWarmSweepByteIdentical(t *testing.T) {
	e, ok := Lookup("fig4")
	if !ok {
		t.Skip("registry experiment missing")
	}
	o := Opts{Runs: 2, Warmup: 2_000, Measure: 4_000, Seed: 1}

	base, err := Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	store := snapshot.NewStore(newMapSnapshots())
	warm := Runner{Workers: 4, Dispatch: WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}}
	for pass := 0; pass < 2; pass++ {
		res, err := warm.RunExperiment(context.Background(), e, o)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("warm sweep pass %d not byte-identical to cold sweep", pass)
		}
	}
	st := store.Stats()
	if st.Hits == 0 || st.Puts == 0 {
		t.Fatalf("store stats = %+v, want cold fills then warm restores", st)
	}
	if st.Misses != st.Puts {
		t.Fatalf("store stats = %+v, want every miss filled exactly once", st)
	}
}

// Corrupt or truncated snapshot files are cold misses, not failures: the
// disk tier's integrity check eats them (counting Corrupt), the runner
// re-warms, and results stay byte-identical — mirroring cache.Disk's
// semantics for simulation results.
func TestCorruptSnapshotIsColdMiss(t *testing.T) {
	o := warmTestOpts()
	cfg := ICount28(4)
	want := Simulate(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil)

	dir := t.TempDir()
	disk, err := cache.NewDisk[[]byte](dir)
	if err != nil {
		t.Fatal(err)
	}
	store := snapshot.NewStore(disk)
	env := WarmEnv{Snapshots: store}
	if got := SimulateEnv(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil, env); !reflect.DeepEqual(got, want) {
		t.Fatal("cold fill differs")
	}

	// Truncate every stored snapshot file in place.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var clobbered int
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		clobbered++
	}
	if clobbered == 0 {
		t.Fatal("no snapshot files written to disk")
	}

	if got := SimulateEnv(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil, env); !reflect.DeepEqual(got, want) {
		t.Fatal("run after corruption differs")
	}
	if ds := disk.Stats(); ds.Corrupt == 0 {
		t.Fatalf("disk stats = %+v, want corrupt reads counted", ds)
	}
	if st := store.Stats(); st.Hits != 0 {
		t.Fatalf("store stats = %+v, want corruption served as misses", st)
	}
}

// Bytes that pass storage integrity but fail the snapshot envelope check
// (version skew, wrong identity) leave the machine rebuilt and run cold —
// results never change.
func TestUnrestorableSnapshotRunsCold(t *testing.T) {
	o := warmTestOpts()
	cfg := ICount28(4)
	want := Simulate(cfg, 0, JobSeed(o.Seed, 0), o, 0, nil)

	seed := JobSeed(o.Seed, 0)
	key := snapshot.Key(cfg.Fingerprint(), 0, seed, o.Warmup)
	poisoned := newMapSnapshots()
	poisoned.Put(key, []byte(`{"version":999}`))

	env := WarmEnv{Snapshots: snapshot.NewStore(poisoned)}
	if got := SimulateEnv(cfg, 0, seed, o, 0, nil, env); !reflect.DeepEqual(got, want) {
		t.Fatal("poisoned snapshot changed results")
	}
}
