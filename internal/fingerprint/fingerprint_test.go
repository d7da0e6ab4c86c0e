package fingerprint_test

import (
	"testing"

	"repro/internal/fingerprint"
)

// Two struct types with identical field names and values but different
// declaration order: the content address must not see the difference.
type orderedA struct {
	Threads int
	Name    string
	Deep    struct {
		X, Y int
	}
}

type orderedB struct {
	Deep struct {
		Y, X int
	}
	Name    string
	Threads int
}

func TestOfStableAcrossFieldReordering(t *testing.T) {
	a := orderedA{Threads: 8, Name: "icount"}
	a.Deep.X, a.Deep.Y = 3, 4
	b := orderedB{Threads: 8, Name: "icount"}
	b.Deep.X, b.Deep.Y = 3, 4
	if fingerprint.Of(a) != fingerprint.Of(b) {
		t.Fatalf("field order changed the fingerprint:\nA: %s\nB: %s", fingerprint.Canonical(a), fingerprint.Canonical(b))
	}
}

func TestOfSeesEveryField(t *testing.T) {
	base := orderedA{Threads: 8, Name: "icount"}
	mutants := []orderedA{
		{Threads: 7, Name: "icount"},
		{Threads: 8, Name: "rr"},
	}
	for i, m := range mutants {
		if fingerprint.Of(base) == fingerprint.Of(m) {
			t.Errorf("mutant %d collided with base: %s", i, fingerprint.Canonical(m))
		}
	}
	deep := base
	deep.Deep.Y = 9
	if fingerprint.Of(base) == fingerprint.Of(deep) {
		t.Error("nested field change did not change the fingerprint")
	}
}

func TestOfMapsAndSlices(t *testing.T) {
	m1 := map[string]int{"a": 1, "b": 2, "c": 3}
	m2 := map[string]int{"c": 3, "b": 2, "a": 1}
	if fingerprint.Of(m1) != fingerprint.Of(m2) {
		t.Fatal("map insertion order changed the fingerprint")
	}
	if fingerprint.Of([]int{1, 2}) == fingerprint.Of([]int{2, 1}) {
		t.Fatal("slice order must be significant")
	}
}

func TestOfMultipleValues(t *testing.T) {
	if fingerprint.Of(1, 2) == fingerprint.Of(12) {
		t.Fatal("value boundaries must be preserved")
	}
	if fingerprint.Of(1, 2) != fingerprint.Of(1, 2) {
		t.Fatal("not deterministic")
	}
}

type legacyCoded string

func (l legacyCoded) CanonicalFingerprint() string { return "7" }

type holder struct {
	Policy legacyCoded
	Width  int
}

// Canonicaler overrides must apply wherever the value appears — top level
// or nested in a struct — so types can freeze their historical encoding.
func TestCanonicalerOverride(t *testing.T) {
	if got := fingerprint.Canonical(legacyCoded("ICOUNT")); got != "7" {
		t.Fatalf("top-level override = %q", got)
	}
	if got := fingerprint.Canonical(holder{Policy: "ICOUNT", Width: 8}); got != "{Policy:7;Width:8}" {
		t.Fatalf("nested override = %q", got)
	}
	// The override participates in the hash like any other encoding.
	if fingerprint.Of(holder{Policy: "A"}) != fingerprint.Of(holder{Policy: "B"}) {
		t.Fatal("overridden values with equal encodings must hash equal")
	}
}
