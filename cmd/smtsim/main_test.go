package main

import (
	"bytes"
	"strings"
	"testing"
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

// TestStalledRunFailsInsteadOfHanging runs ROADMAP item 1's reproducer: two
// contexts evict each other's I-cache line for ever and nothing commits after
// cycle 17k. Unguarded, this never returns.
func TestStalledRunFailsInsteadOfHanging(t *testing.T) {
	out, errOut, code := runCLI(t, "-threads", "2", "-fetch", "RR", "-seed", "9219", "-warmup", "30000", "-measure", "60000")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
	}
	for _, want := range []string{"smtsim: stalled in warmup", "before cycle ", "committed 28731 of 60000", "per thread ["} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q does not say %q", errOut, want)
		}
	}
	if strings.Contains(out, "throughput") {
		t.Errorf("a stalled run printed statistics:\n%s", out)
	}
}
