package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 8 {
		t.Fatalf("want 8 benchmarks, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"alvinn", "doduc", "fpppp", "ora", "tomcatv", "espresso", "xlisp", "tex"} {
		if !names[want] {
			t.Errorf("missing paper benchmark %s", want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("xlisp")
	if err != nil || p.Name != "xlisp" {
		t.Fatalf("ProfileByName(xlisp) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	p := Profiles()[5] // espresso
	a := MustNew(p, 77, 3)
	b := MustNew(p, 77, 3)
	if len(a.Code) != len(b.Code) {
		t.Fatalf("code sizes differ: %d vs %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Code[i], b.Code[i])
		}
	}
	c := MustNew(p, 78, 3)
	diff := 0
	for i := 0; i < min(len(a.Code), len(c.Code)); i++ {
		if a.Code[i] != c.Code[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestDistinctASIDsDisjoint(t *testing.T) {
	p := Profiles()[0]
	a := MustNew(p, 1, 0)
	b := MustNew(p, 1, 1)
	if a.Base == b.Base {
		t.Fatal("distinct asids share code base")
	}
	if a.Base>>addrSpaceBits == b.Base>>addrSpaceBits {
		t.Fatal("distinct asids share address-space tag")
	}
}

// TestControlTargetsInImage checks every direct branch/jump/call target and
// every jump-table entry lands inside the code image.
func TestControlTargetsInImage(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustNew(p, 42, 0)
		lo, hi := prog.Base, prog.PCOf(len(prog.Code))
		for i := range prog.Code {
			s := &prog.Code[i]
			if !s.Class.IsControl() {
				continue
			}
			if s.Class == isa.ClassBranch || s.Class == isa.ClassJump || s.Class == isa.ClassCall {
				if s.Target < lo || s.Target >= hi {
					t.Fatalf("%s: instr %d (%s) target %#x outside [%#x,%#x)", p.Name, i, s.Class, s.Target, lo, hi)
				}
				if (s.Target-prog.Base)%isa.InstrBytes != 0 {
					t.Fatalf("%s: misaligned target %#x", p.Name, s.Target)
				}
			}
			if s.Class == isa.ClassJumpInd {
				tbl := prog.jumpTables[s.BranchID]
				if len(tbl) == 0 {
					t.Fatalf("%s: indirect jump %d has empty table", p.Name, i)
				}
				for _, tgt := range tbl {
					if tgt < lo || tgt >= hi {
						t.Fatalf("%s: jump table target %#x out of image", p.Name, tgt)
					}
				}
			}
		}
	}
}

func TestCodeSizeNearBudget(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustNew(p, 9, 0)
		n := len(prog.Code)
		if n < p.CodeInstrs/2 || n > p.CodeInstrs*3 {
			t.Errorf("%s: code size %d vs budget %d", p.Name, n, p.CodeInstrs)
		}
	}
}

func TestIndexPCRoundTrip(t *testing.T) {
	prog := MustNew(Profiles()[1], 5, 2)
	for _, idx := range []int{0, 1, 17, len(prog.Code) - 1} {
		if got := prog.IndexOf(prog.PCOf(idx)); got != idx {
			t.Fatalf("round trip %d -> %d", idx, got)
		}
	}
	// Out-of-image PCs wrap rather than fault.
	if got := prog.IndexOf(prog.PCOf(len(prog.Code))); got != 0 {
		t.Fatalf("wraparound high = %d", got)
	}
	if got := prog.IndexOf(prog.Base - isa.InstrBytes); got != len(prog.Code)-1 {
		t.Fatalf("wraparound low = %d", got)
	}
}

func TestWalkerDeterministic(t *testing.T) {
	p := Profiles()[6] // xlisp: recursion + indirect jumps
	w1 := NewWalker(MustNew(p, 3, 0))
	w2 := NewWalker(MustNew(p, 3, 0))
	for i := 0; i < 50000; i++ {
		r1, r2 := w1.Next(), w2.Next()
		if r1 != r2 {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1, r2)
		}
	}
}

// TestWalkerPathConsistency checks the fundamental oracle invariants over a
// long walk of every benchmark: PCs chain correctly, memory addresses land
// in their regions, call depth stays bounded, and control outcomes match the
// static structure.
func TestWalkerPathConsistency(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustNew(p, 11, 1)
		w := NewWalker(prog)
		pc := prog.Entry
		for i := 0; i < 200000; i++ {
			rec := w.Next()
			if rec.PC != pc {
				t.Fatalf("%s@%d: record PC %#x, expected %#x", p.Name, i, rec.PC, pc)
			}
			s := &prog.Code[rec.Idx]
			if prog.IndexOf(rec.PC) != int(rec.Idx) {
				t.Fatalf("%s@%d: Idx mismatch", p.Name, i)
			}
			switch {
			case s.Class.IsMem():
				ok := prog.Stack.Contains(rec.Addr)
				for _, r := range prog.Regions {
					ok = ok || r.Contains(rec.Addr)
				}
				if !ok {
					t.Fatalf("%s@%d: address %#x outside all regions", p.Name, i, rec.Addr)
				}
				if rec.Addr%8 != 0 && s.Pattern != isa.MemStride {
					t.Fatalf("%s@%d: unaligned address %#x", p.Name, i, rec.Addr)
				}
			case s.Class == isa.ClassBranch:
				if rec.Taken && rec.NextPC != s.Target {
					t.Fatalf("%s@%d: taken branch NextPC %#x != target %#x", p.Name, i, rec.NextPC, s.Target)
				}
				if !rec.Taken && rec.NextPC != rec.PC+isa.InstrBytes {
					t.Fatalf("%s@%d: not-taken branch NextPC wrong", p.Name, i)
				}
			case s.Class == isa.ClassJump:
				if rec.NextPC != s.Target {
					t.Fatalf("%s@%d: jump NextPC wrong", p.Name, i)
				}
			case !s.Class.IsControl():
				if rec.NextPC != rec.PC+isa.InstrBytes {
					t.Fatalf("%s@%d: sequential NextPC wrong", p.Name, i)
				}
			}
			if depth := len(w.callStack); depth > maxCallDepth+8 {
				t.Fatalf("%s@%d: call depth %d exploded", p.Name, i, depth)
			}
			pc = rec.NextPC
		}
	}
}

// TestDynamicMixMatchesProfile verifies the dynamic instruction stream has
// roughly the instruction mix the profile requests.
func TestDynamicMixMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustNew(p, 21, 0)
		w := NewWalker(prog)
		var loads, stores, fp, branches, controls, total int
		for i := 0; i < 150000; i++ {
			rec := w.Next()
			s := &prog.Code[rec.Idx]
			total++
			switch {
			case s.Class == isa.ClassLoad:
				loads++
			case s.Class == isa.ClassStore:
				stores++
			case s.Class.IsFP():
				fp++
			case s.Class == isa.ClassBranch:
				branches++
				controls++
			case s.Class.IsControl():
				controls++
			}
		}
		loadFrac := float64(loads) / float64(total)
		if loadFrac < p.LoadFrac*0.4 || loadFrac > p.LoadFrac*1.8+0.05 {
			t.Errorf("%s: dynamic load fraction %.3f vs profile %.3f", p.Name, loadFrac, p.LoadFrac)
		}
		if p.FPFrac > 0.1 {
			fpFrac := float64(fp) / float64(total)
			if fpFrac < p.FPFrac*0.4 {
				t.Errorf("%s: dynamic fp fraction %.3f vs profile %.3f", p.Name, fpFrac, p.FPFrac)
			}
		}
		// Control-transfer spacing should be in the same ballpark as
		// AvgBlock (loops shorten it, big blocks stretch it).
		spacing := float64(total) / float64(controls+1)
		if spacing < p.AvgBlock*0.3 || spacing > p.AvgBlock*4 {
			t.Errorf("%s: control spacing %.1f vs AvgBlock %.1f", p.Name, spacing, p.AvgBlock)
		}
	}
}

// TestLoopBranchesMostlyTaken: loop back-edges should be taken far more
// often than not across a long walk (they are the predictable backbone).
func TestLoopBranchesMostlyTaken(t *testing.T) {
	prog := MustNew(Profiles()[4], 13, 0) // tomcatv: loop-heavy
	w := NewWalker(prog)
	taken, total := 0, 0
	for i := 0; i < 100000; i++ {
		rec := w.Next()
		s := &prog.Code[rec.Idx]
		if s.Class == isa.ClassBranch && prog.branchMeta[s.BranchID].kind == BranchLoop {
			total++
			if rec.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no loop branches executed")
	}
	if frac := float64(taken) / float64(total); frac < 0.75 {
		t.Fatalf("loop back-edges taken only %.2f of the time", frac)
	}
}

// Property: drawTrip is deterministic, positive, and bounded.
func TestDrawTripProperty(t *testing.T) {
	f := func(seed uint64, bid int32, entry uint32) bool {
		if bid < 0 {
			bid = -bid
		}
		a := drawTrip(seed, bid, entry, 20)
		b := drawTrip(seed, bid, entry, 20)
		return a == b && a >= 1 && a <= 1<<20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrongPathAddrInRegions(t *testing.T) {
	prog := MustNew(Profiles()[5], 17, 0)
	for i := range prog.Code {
		s := &prog.Code[i]
		if !s.Class.IsMem() {
			continue
		}
		for salt := uint64(0); salt < 8; salt++ {
			addr := prog.WrongPathAddr(s, salt)
			ok := prog.Stack.Contains(addr)
			for _, r := range prog.Regions {
				ok = ok || r.Contains(addr)
			}
			if !ok {
				t.Fatalf("wrong-path addr %#x outside regions", addr)
			}
		}
	}
}

func TestRegionsWithinAddressSpace(t *testing.T) {
	for asid := 0; asid < 3; asid++ {
		prog := MustNew(Profiles()[2], 5, asid)
		tag := int64(asid+1) << addrSpaceBits
		check := func(base int64, what string) {
			if base>>addrSpaceBits != tag>>addrSpaceBits {
				t.Fatalf("asid %d: %s base %#x outside tagged space", asid, what, base)
			}
		}
		check(prog.Base, "code")
		check(prog.Stack.Base, "stack")
		for _, r := range prog.Regions {
			check(r.Base, "region")
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(Profile{Name: "bad"}, 1, 0); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := New(Profiles()[0], 1, -1); err == nil {
		t.Fatal("expected asid error")
	}
}
