package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not simply mirror the parent stream.
	matches := 0
	for i := 0; i < 256; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 1 {
		t.Fatalf("split stream mirrors parent (%d matches)", matches)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if s.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("Bool(%v) rate = %v", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(17)
	for _, mean := range []float64{1, 2, 5, 12} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += s.Geometric(mean)
		}
		got := float64(sum) / n
		if got < mean*0.9-0.2 || got > mean*1.1+0.2 {
			t.Fatalf("Geometric(%v) mean = %v", mean, got)
		}
	}
}

func TestGeometricAtLeastOne(t *testing.T) {
	s := New(19)
	for i := 0; i < 1000; i++ {
		if s.Geometric(0.5) < 1 || s.Geometric(3) < 1 {
			t.Fatal("Geometric returned < 1")
		}
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 2, 4) {
		t.Fatal("Hash insensitive to last arg")
	}
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash insensitive to order")
	}
}

func TestHashUniformityProperty(t *testing.T) {
	// Property: low bit of Hash is unbiased over random inputs.
	f := func(a, b uint64) bool {
		_ = Hash(a, b) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	s := New(23)
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if Hash(s.Uint64(), uint64(i))&1 == 1 {
			ones++
		}
	}
	if frac := float64(ones) / n; math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("Hash low bit biased: %v", frac)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	v1 := s.Uint64()
	v2 := s.Uint64()
	if v1 == v2 {
		t.Fatal("zero-value Source not advancing")
	}
}

// TestMixMatchesSplitmix64 pins Mix to the splitmix64 finalizer as the
// backoff jitter, the fault schedules and the cache ring spell it out:
// Mix(x+Golden) is one splitmix64 step, Mix(x) the bare finalizer. Any
// drift would move ring owners, backoff delays and chaos schedules.
func TestMixMatchesSplitmix64(t *testing.T) {
	finalizer := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	step := func(x uint64) uint64 { return finalizer(x + 0x9e3779b97f4a7c15) }
	if got := Mix(0 + Golden); got != 0xe220a8397b1dcdaf {
		t.Fatalf("first splitmix64 output from seed 0 = %#x, want 0xe220a8397b1dcdaf", got)
	}
	f := func(x uint64) bool { return Mix(x) == finalizer(x) && Mix(x+Golden) == step(x) }
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}
