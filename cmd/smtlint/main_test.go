package main

import (
	"os"
	"testing"
)

// TestCleanTree dogfoods the suite: the repository must stay free of
// findings. CI runs the same check as a required job; this keeps `go test
// ./...` honest about it locally too.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	// The test binary runs from cmd/smtlint; lint the module root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := run([]string{"./..."}); code != 0 {
		t.Errorf("smtlint ./... = exit %d on the repository tree, want 0 (findings above)", code)
	}
}
