package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// tiny are budgets small enough for end-to-end CLI tests.
var tiny = []string{"-runs", "1", "-warmup", "500", "-measure", "1000"}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListPrintsRegistry(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range exp.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-experiment", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("stderr: %q", errOut)
	}
}

func TestBadFlagFails(t *testing.T) {
	_, _, code := runCLI(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	_, errOut, code := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errOut, "-experiment") {
		t.Fatalf("usage missing flags: %q", errOut)
	}
}

func TestEndToEndTextRun(t *testing.T) {
	out, errOut, code := runCLI(t, append([]string{"-experiment", "fig7"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "==== fig7") || !strings.Contains(out, "contexts") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestTrailingCommaTolerated(t *testing.T) {
	out, errOut, code := runCLI(t, append([]string{"-experiment", "fig7,"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "==== fig7") {
		t.Fatalf("fig7 did not run:\n%s", out)
	}
}

func TestEmptySelectionFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-experiment", "")
	if code != 2 {
		t.Fatalf("-experiment '': exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no experiment selected") {
		t.Fatalf("-experiment '': stderr %q", errOut)
	}
}

func TestTypoAlongsideAllFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-experiment", "all,fgi3")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `"fgi3"`) {
		t.Fatalf("stderr: %q", errOut)
	}
}

func TestJSONOutputParsesAndIsParallelInvariant(t *testing.T) {
	base := append([]string{"-experiment", "fig7", "-json"}, tiny...)
	serial, _, code := runCLI(t, append(base, "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	parallel, _, code := runCLI(t, append(base, "-parallel", "4")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if serial != parallel {
		t.Fatalf("-parallel changed the JSON:\n%s\nvs\n%s", serial, parallel)
	}
	var results []exp.ExperimentResult
	if err := json.Unmarshal([]byte(serial), &results); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}
	res := results[0]
	if res.SchemaVersion != exp.SchemaVersion || res.Experiment != "fig7" {
		t.Fatalf("decoded result wrong: %+v", res)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 5 {
		t.Fatalf("unexpected shape: %+v", res.Series)
	}
}

// TestJSONMultipleExperimentsIsOneDocument guards against emitting
// concatenated JSON objects: selecting several experiments must still
// produce a single parseable document.
func TestJSONMultipleExperimentsIsOneDocument(t *testing.T) {
	out, _, code := runCLI(t, append([]string{"-experiment", "fig7,table4", "-json"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var results []exp.ExperimentResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("multi-experiment output is not one JSON document: %v", err)
	}
	// Output follows registry order (table4 registers before fig7), not
	// the order names were passed — same contract as text mode and "all".
	if len(results) != 2 || results[0].Experiment != "table4" || results[1].Experiment != "fig7" {
		t.Fatalf("unexpected order: %s, %s", results[0].Experiment, results[1].Experiment)
	}
}

// TestTypoAmongValidNamesFails: one misspelled name must fail the whole
// invocation up front, not silently run the valid subset.
func TestTypoAmongValidNamesFails(t *testing.T) {
	out, errOut, code := runCLI(t, append([]string{"-experiment", "fig7,fgi3"}, tiny...)...)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `"fgi3"`) {
		t.Fatalf("stderr does not name the typo: %q", errOut)
	}
	if strings.Contains(out, "==== fig7") {
		t.Fatalf("ran the valid subset despite the typo:\n%s", out)
	}
}

// TestJSONElementMatchesEngineBytes ties the CLI to the engine's canonical
// encoding: each element of the -json array, re-encoded canonically, is
// byte-identical to exp.Run's output for the same opts. The smtd service
// serves exactly those engine bytes, so this is the transitive link between
// `experiments -json` and `GET /v1/jobs/{id}/result`.
func TestJSONElementMatchesEngineBytes(t *testing.T) {
	out, _, code := runCLI(t, append([]string{"-experiment", "fig7", "-json"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var results []*exp.ExperimentResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}
	var cli bytes.Buffer
	if err := results[0].EncodeJSON(&cli); err != nil {
		t.Fatal(err)
	}
	want, err := exp.Run("fig7", exp.Opts{Runs: 1, Warmup: 500, Measure: 1000, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var engine bytes.Buffer
	if err := want.EncodeJSON(&engine); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), engine.Bytes()) {
		t.Fatalf("CLI element differs from engine bytes:\n%s\nvs\n%s", cli.String(), engine.String())
	}
}

// TestInvalidNumericFlagsRejected: nonsense pool sizes and budgets must
// fail fast with a clear message, not be silently normalized by the
// engine's Opts defaults.
func TestInvalidNumericFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel -1 is negative"},
		{"zero runs", []string{"-runs", "0"}, "-runs 0 must be positive"},
		{"negative runs", []string{"-runs", "-3"}, "-runs -3 must be positive"},
		{"negative warmup", []string{"-warmup", "-5"}, "-warmup -5 is negative"},
		{"zero measure", []string{"-measure", "0"}, "-measure 0 must be positive"},
		{"negative measure", []string{"-measure", "-100"}, "-measure -100 must be positive"},
		{"overflowing measure", []string{"-measure", "1729382256910270464"}, "-measure 1729382256910270464 exceeds"},
		{"negative cache", []string{"-cache", "-2"}, "-cache -2 is negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-experiment", "fig7"}, c.args...)
			out, errOut, code := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut)
			}
			if !strings.Contains(errOut, c.want) {
				t.Fatalf("stderr %q does not contain %q", errOut, c.want)
			}
			if strings.Contains(out, "====") {
				t.Fatalf("experiment ran despite invalid flags:\n%s", out)
			}
		})
	}
}

// TestZeroParallelMeansGOMAXPROCS: 0 remains a valid "use all cores"
// sentinel, only negatives are rejected.
func TestZeroParallelMeansGOMAXPROCS(t *testing.T) {
	out, errOut, code := runCLI(t, append([]string{"-experiment", "fig7", "-parallel", "0"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "==== fig7") {
		t.Fatalf("fig7 did not run:\n%s", out)
	}
}

// TestCacheFlagKeepsOutputIdentical: enabling or disabling cross-experiment
// result reuse must never change output bytes — reuse is legal precisely
// because jobs are deterministic functions of their content address.
func TestCacheFlagKeepsOutputIdentical(t *testing.T) {
	base := append([]string{"-experiment", "fig3,table3", "-json"}, tiny...)
	cached, _, code := runCLI(t, append(base, "-cache", "1024")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	uncached, _, code := runCLI(t, append(base, "-cache", "0")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if cached != uncached {
		t.Fatalf("-cache changed the JSON:\n%s\nvs\n%s", cached, uncached)
	}
}

// TestTable3ShowsFetchAvailability: the Table-3 printer must include the
// per-cause fetch-loss breakdown rows.
func TestTable3ShowsFetchAvailability(t *testing.T) {
	out, errOut, code := runCLI(t, append([]string{"-experiment", "table3"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, row := range []string{
		"fetch delivered instructions",
		"lost: IQ back-pressure",
		"lost: no fetchable thread",
		"lost: I-cache miss",
		"lost: cache-fill bank conflict",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("table3 output missing %q:\n%s", row, out)
		}
	}
}

// TestTextLayoutFrozen is the referee for the printed tables: the three
// files under testdata are the stdout of the binary built before the
// layouts moved next to their grids, and every byte must still match.
func TestTextLayoutFrozen(t *testing.T) {
	for file, args := range map[string][]string{
		"all.txt":             {"-experiment", "all"},
		"adhoc_fetch.txt":     {"-fetch", "RR,ICOUNT", "-threads", "4"},
		"adhoc_predictor.txt": {"-predictor", "gshare,gskewed", "-threads", "4"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		out, errOut, code := runCLI(t, append(args, tiny...)...)
		if code != 0 || errOut != "" {
			t.Fatalf("%s: exit %d, stderr %q", file, code, errOut)
		}
		if out != string(want) {
			t.Errorf("%s: stdout differs from the frozen layout\n--- got ---\n%s--- want ---\n%s", file, out, want)
		}
	}
}

func TestPoliciesListing(t *testing.T) {
	out, _, code := runCLI(t, "-policies")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"ICOUNT", "ICOUNT+BRCOUNT", "ICOUNT+2MISSCOUNT", "OPT_LAST"} {
		if !strings.Contains(out, want) {
			t.Errorf("-policies output missing %s:\n%s", want, out)
		}
	}
}

// The -fetch flag runs an ad-hoc comparison of registered policies —
// composites included — without a registry preset.
func TestAdhocFetchSweep(t *testing.T) {
	args := append([]string{"-fetch", "ICOUNT,ICOUNT+BRCOUNT", "-threads", "2", "-nfetch", "2"}, tiny...)
	out, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"ICOUNT.2.8", "ICOUNT+BRCOUNT.2.8"} {
		if !strings.Contains(out, want) {
			t.Errorf("ad-hoc output missing series %s:\n%s", want, out)
		}
	}
}

func TestAdhocFetchSweepJSON(t *testing.T) {
	args := append([]string{"-fetch", "ICOUNT,ICOUNT+2MISSCOUNT", "-threads", "2", "-json"}, tiny...)
	out, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var results []*exp.ExperimentResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].Experiment != "adhoc" || len(results[0].Series) != 2 {
		t.Fatalf("ad-hoc JSON shape: %+v", results)
	}
	for _, s := range results[0].Series {
		for _, p := range s.Points {
			if p.IPC <= 0 {
				t.Errorf("series %s point %d has no throughput", s.Name, p.Threads)
			}
		}
	}
}

func TestAdhocFetchConflictsWithExperiment(t *testing.T) {
	_, errOut, code := runCLI(t, "-fetch", "ICOUNT", "-experiment", "fig3")
	if code != 2 || !strings.Contains(errOut, "-fetch") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

func TestAdhocUnknownPolicyFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-fetch", "NOPE")
	if code != 2 || !strings.Contains(errOut, "unknown fetch policy") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

// TestAdhocTooManyThreadsFails: a comparison past the simulator's 64
// contexts is a usage error with nothing on stdout, not a runner panic.
func TestAdhocTooManyThreadsFails(t *testing.T) {
	out, errOut, code := runCLI(t, "-fetch", "RR", "-threads", "65", "-runs", "1", "-measure", "100", "-warmup", "0")
	if code != 2 || out != "" || !strings.Contains(errOut, "Threads = 65") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestAdhocOnlyFlagsRequireFetch(t *testing.T) {
	_, errOut, code := runCLI(t, "-experiment", "fig3", "-issue", "SPEC_LAST")
	if code != 2 || !strings.Contains(errOut, "-issue") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCLI(t, "-threads", "4"); code != 2 || !strings.Contains(errOut, "-threads") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCLI(t, "-experiment", "fig3", "-predfetch", "RR"); code != 2 || !strings.Contains(errOut, "-predfetch") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

func TestPredictorsListing(t *testing.T) {
	out, _, code := runCLI(t, "-predictors")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"gshare", "smiths", "gskewed", "static", "gshare.noret", "perfect"} {
		if !strings.Contains(out, want) {
			t.Errorf("-predictors output missing %s:\n%s", want, out)
		}
	}
}

// The -predictor flag runs an ad-hoc head-to-head of registered branch
// predictors under one fetch scheme, without a registry preset.
func TestAdhocPredictorSweep(t *testing.T) {
	args := append([]string{"-predictor", "gshare,none", "-threads", "2"}, tiny...)
	out, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"gshare", "none"} {
		if !strings.Contains(out, want) {
			t.Errorf("ad-hoc predictor output missing series %s:\n%s", want, out)
		}
	}
}

func TestAdhocUnknownPredictorFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-predictor", "NOPE")
	if code != 2 || !strings.Contains(errOut, "unknown branch predictor") ||
		!strings.Contains(errOut, "gshare") || !strings.Contains(errOut, "gskewed") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

func TestAdhocPredictorConflictsWithFetch(t *testing.T) {
	_, errOut, code := runCLI(t, "-fetch", "ICOUNT", "-predictor", "gshare")
	if code != 2 || !strings.Contains(errOut, "-predictor") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCLI(t, "-predictor", "gshare", "-experiment", "fig3"); code != 2 || !strings.Contains(errOut, "-predictor") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}
