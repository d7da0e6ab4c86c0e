package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/snapshot"
)

func warmTestOpts() Opts { return Opts{Runs: 2, Warmup: 3_000, Measure: 5_000, Seed: 1} }

// A different configuration sharing the rotation must share the context
// traces but not the snapshot key.
func TestWarmEnvKeysSeparateConfigs(t *testing.T) {
	o := warmTestOpts()
	store, traces := snapshot.NewStore(cache.New[[]byte](0)), snapshot.NewTraceCache(0)
	env := WarmEnv{Snapshots: store, Traces: traces}

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
	if ts := traces.Stats(); ts.Builds != int64(a.Threads) {
		t.Fatalf("trace cache built %d context traces, want %d shared across configs", ts.Builds, a.Threads)
	}
}

// TestRunnerWarmSweepByteIdentical: a registered experiment at two
// rotations, swept through warmup checkpoints and trace replay twice (cold
// fills, then restores), encodes to the plain runner's bytes both times.
// The path matrix's rows run one rotation; this one keys a checkpoint per
// run.
func TestRunnerWarmSweepByteIdentical(t *testing.T) {
	e, ok := Lookup("fig4")
	if !ok {
		t.Fatal("fig4 is not registered")
	}
	o := Opts{Runs: 2, Warmup: 2_000, Measure: 4_000, Seed: 1}
	base, err := Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, base)

	store := snapshot.NewStore(cache.New[[]byte](0))
	warm := Runner{Workers: 4, Dispatch: WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}}
	for pass := 0; pass < 2; pass++ {
		res, err := warm.RunExperiment(context.Background(), e, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(t, res); !bytes.Equal(got, want) {
			t.Fatalf("warm sweep pass %d not byte-identical to the plain sweep\nplain: %s\nwarm:  %s", pass, want, got)
		}
	}
	if st := store.Stats(); st.Hits == 0 || st.Puts == 0 || st.Misses != st.Puts {
		t.Fatalf("store stats = %+v, want cold fills, each miss filled once, then restores", st)
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
	key := SnapshotKey(cfg.Fingerprint(), 0, seed, o.Warmup)
	poisoned := cache.New[[]byte](0)
	poisoned.Put(key, []byte(`{"version":999}`))

	env := WarmEnv{Snapshots: snapshot.NewStore(poisoned)}
	if got := SimulateEnv(cfg, 0, seed, o, 0, nil, env); !reflect.DeepEqual(got, want) {
		t.Fatal("poisoned snapshot changed results")
	}
}
