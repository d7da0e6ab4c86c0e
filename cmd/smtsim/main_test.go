package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/smt"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestEndToEndTinyRun(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-threads", "2", "-fetch", "ICOUNT", "-nfetch", "2",
		"-warmup", "500", "-measure", "1000")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"machine: ICOUNT.2.8", "throughput:", "ICache", "per-thread commits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSuperscalarForcesOneThread(t *testing.T) {
	out, _, code := runCLI(t, "-superscalar", "-warmup", "500", "-measure", "1000")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "threads=1") {
		t.Fatalf("superscalar did not force one thread:\n%s", out)
	}
}

func TestBadFetchPolicyFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-fetch", "NOPE")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "smtsim:") {
		t.Fatalf("stderr: %q", errOut)
	}
}

func TestBadIssuePolicyFails(t *testing.T) {
	if _, _, code := runCLI(t, "-issue", "NOPE"); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestBadFlagFails(t *testing.T) {
	if _, _, code := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if _, _, code := runCLI(t, "-h"); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
}

func TestBadBenchNameFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-threads", "1", "-bench", "not-a-benchmark")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
	}
}

// TestBenchListParsedLikeExperiments: -bench trims each name and skips
// empty ones, so a space after a comma or a trailing comma names the same
// mix as the bare list.
func TestBenchListParsedLikeExperiments(t *testing.T) {
	for _, list := range []string{"espresso, xlisp", "espresso,xlisp,"} {
		out, errOut, code := runCLI(t, "-threads", "2", "-bench", list, "-warmup", "500", "-measure", "1000")
		if code != 0 || !strings.Contains(out, "workload=[espresso xlisp]") {
			t.Errorf("-bench %q: exit %d, stderr %q, stdout:\n%s", list, code, errOut, out)
		}
	}
}

// TestNegativeBudgetsAndRotationRejected: each used to reach the simulator
// and die there with a stack trace (or, for -warmup, be taken as zero).
func TestNegativeBudgetsAndRotationRejected(t *testing.T) {
	for _, c := range []struct{ flag, want string }{
		{"-measure", "-measure -1 is negative"},
		{"-warmup", "-warmup -1 is negative"},
		{"-rotate", "-rotate -1 is negative"},
	} {
		out, errOut, code := runCLI(t, c.flag, "-1")
		if code != 2 || !strings.Contains(errOut, c.want) || strings.Count(errOut, "\n") != 1 || out != "" {
			t.Errorf("%s -1: exit %d, stdout %q, stderr %q", c.flag, code, out, errOut)
		}
	}
}

// TestSeed9219Progresses runs the reproducer of a livelock that ended when
// a cache line began entering the tags as its fill lands: while tags
// installed at request time, two contexts evicted each other's I-cache line
// before it arrived, and nothing committed after cycle 17k. Now the run
// finishes, and each context commits at least 1/(4T) of the instructions.
func TestSeed9219Progresses(t *testing.T) {
	out, errOut, code := runCLI(t, "-threads", "2", "-fetch", "RR", "-seed", "9219", "-warmup", "30000", "-measure", "60000")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, errOut)
	}
	var committed int64
	var perThread [2]int64
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "committed:"); ok {
			fmt.Sscan(v, &committed)
		}
		if v, ok := strings.CutPrefix(line, "per-thread commits:"); ok {
			fmt.Sscanf(strings.TrimSpace(v), "[%d %d]", &perThread[0], &perThread[1])
		}
	}
	if committed < 2*60000 {
		t.Fatalf("committed %d, want at least %d:\n%s", committed, 2*60000, out)
	}
	for i, n := range perThread {
		if n*4*2 < committed {
			t.Errorf("context %d committed %d of %d, under 1/(4T):\n%s", i, n, committed, out)
		}
	}
}

// TestStalledRunFailsInsteadOfHanging holds runPhase's guard to a window
// of one cycle on a fresh machine, whose first cycle commits nothing: the
// phase is abandoned with a message naming it, the window and the commits.
func TestStalledRunFailsInsteadOfHanging(t *testing.T) {
	sim, err := smt.New(smt.DefaultConfig(2), smt.WorkloadMix(2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runPhase(sim, "warmup", 1000, 1)
	if err == nil {
		t.Fatal("a phase that committed nothing in its window was not abandoned")
	}
	for _, want := range []string{"stalled in warmup", "nothing committed in the 1 cycles before cycle 1", "committed 0 of 1000", "per thread [0 0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
