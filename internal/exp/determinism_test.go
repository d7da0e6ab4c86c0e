package exp

import (
	"bytes"
	"reflect"
	"testing"
)

// encode marshals an engine result via ExperimentResult.EncodeJSON — the
// engine's canonical byte encoding (the CLI's -json wraps these objects in
// a JSON array).
func encode(t *testing.T, res *ExperimentResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismSameSeedTwice runs one experiment twice with identical
// Opts and requires identical Results, down to every counter.
func TestDeterminismSameSeedTwice(t *testing.T) {
	o := tinyOpts()
	a, err := Run("fig7", o, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig7", o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encode(t, a), encode(t, b); !bytes.Equal(got, want) {
		t.Fatalf("same seed twice differs:\n%s\nvs\n%s", want, got)
	}
	// Spot-check a deep counter set, not just the JSON surface.
	ra := a.Series[0].Points[2].Results
	rb := b.Series[0].Points[2].Results
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("raw Results differ: %+v vs %+v", ra, rb)
	}
}

// TestDeterminismDifferentSeedDiffers guards against the seed being ignored:
// a different base seed must change the workload and therefore the counters.
func TestDeterminismDifferentSeedDiffers(t *testing.T) {
	o := tinyOpts()
	a, err := Run("fig7", o, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed = 99
	b, err := Run("fig7", o, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Series[0].Points {
		if a.Series[0].Points[i].IPC != b.Series[0].Points[i].IPC {
			same = false
		}
	}
	if same {
		t.Fatal("changing the seed changed nothing")
	}
}
