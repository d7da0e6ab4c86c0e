package isa

import (
	"testing"
	"testing/quick"
)

// TestTable1Latencies pins the latency table to the paper's Table 1.
func TestTable1Latencies(t *testing.T) {
	cases := []struct {
		class Class
		want  int
	}{
		{ClassIntMul, 8},
		{ClassIntMulW, 16},
		{ClassCondMove, 2},
		{ClassCompare, 0},
		{ClassIntALU, 1},
		{ClassFPDiv, 17},
		{ClassFPDivD, 30},
		{ClassFPAdd, 4},
		{ClassLoad, 1},
		{ClassStore, 1},
		{ClassBranch, 1},
		{ClassJump, 1},
		{ClassJumpInd, 1},
		{ClassCall, 1},
		{ClassReturn, 1},
		{ClassNop, 1},
	}
	for _, c := range cases {
		if got := c.class.Latency(); got != c.want {
			t.Errorf("%s latency = %d, want %d", c.class, got, c.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		fp := c == ClassFPAdd || c == ClassFPDiv || c == ClassFPDivD
		if c.IsFP() != fp {
			t.Errorf("%s IsFP = %v, want %v", c, c.IsFP(), fp)
		}
		mem := c == ClassLoad || c == ClassStore
		if c.IsMem() != mem {
			t.Errorf("%s IsMem = %v, want %v", c, c.IsMem(), mem)
		}
		ctl := c == ClassBranch || c == ClassJump || c == ClassJumpInd || c == ClassCall || c == ClassReturn
		if c.IsControl() != ctl {
			t.Errorf("%s IsControl = %v, want %v", c, c.IsControl(), ctl)
		}
	}
	if !ClassBranch.IsCondBranch() || ClassJump.IsCondBranch() {
		t.Error("IsCondBranch wrong")
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]Class{}
	for c := Class(0); int(c) < NumClasses; c++ {
		s := c.String()
		if s == "" {
			t.Errorf("class %d has empty name", c)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("classes %d and %d share name %q", prev, c, s)
		}
		seen[s] = c
	}
}

func TestRegConstruction(t *testing.T) {
	for i := 0; i < LogicalRegs; i++ {
		r := IntReg(i)
		if r.IsFP() || r.Index() != i || !r.Valid() {
			t.Fatalf("IntReg(%d) => %v fp=%v idx=%d", i, r, r.IsFP(), r.Index())
		}
		f := FPReg(i)
		if !f.IsFP() || f.Index() != i || !f.Valid() {
			t.Fatalf("FPReg(%d) => %v fp=%v idx=%d", i, f, f.IsFP(), f.Index())
		}
		if r == f {
			t.Fatalf("int and fp register %d collide", i)
		}
	}
	if RegNone.Valid() {
		t.Error("RegNone must be invalid")
	}
}

func TestRegString(t *testing.T) {
	if IntReg(7).String() != "r7" {
		t.Errorf("got %q", IntReg(7).String())
	}
	if FPReg(12).String() != "f12" {
		t.Errorf("got %q", FPReg(12).String())
	}
	if RegNone.String() != "-" {
		t.Errorf("got %q", RegNone.String())
	}
}

// Property: IntReg/FPReg round-trip through Index for all valid inputs.
func TestRegRoundTripProperty(t *testing.T) {
	f := func(n uint8) bool {
		i := int(n) % LogicalRegs
		return IntReg(i).Index() == i && FPReg(i).Index() == i &&
			!IntReg(i).IsFP() && FPReg(i).IsFP()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticString(t *testing.T) {
	br := &Static{Class: ClassBranch, Target: 0x1000, BranchID: 0}
	if br.String() == "" {
		t.Error("empty branch string")
	}
	ld := &Static{Class: ClassLoad, Dest: IntReg(3), Pattern: MemStride, Region: 2}
	if ld.String() == "" {
		t.Error("empty load string")
	}
	alu := &Static{Class: ClassIntALU, Dest: IntReg(1), Src1: IntReg(2), Src2: IntReg(3)}
	if alu.String() == "" {
		t.Error("empty alu string")
	}
}

func TestLatencyNonNegative(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		if c.Latency() < 0 {
			t.Errorf("%s has negative latency", c)
		}
	}
}
