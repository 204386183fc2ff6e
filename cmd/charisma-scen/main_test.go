package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"charisma/internal/grid"
	"charisma/internal/scengen"
)

// Bad generator flags must come back as a typed error, not a panic from
// deep inside the draws.
func TestRunGenRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-max-voice", "-2"},
		{"-max-data", "-1"},
		{"-n", "-1"},
		{"-max-cells", "3", "-multicell-frac", "2"},
	} {
		var ce *scengen.ConfigError
		if err := runGen(args); !errors.As(err, &ce) {
			t.Errorf("runGen(%q) = %v, want a *scengen.ConfigError", args, err)
		}
	}
}

func TestRunGenWritesOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := runGen([]string{"-seed", "3", "-n", "4", "-out", out}); err != nil {
		t.Fatal(err)
	}
	pts, err := grid.LoadScenarioPath(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("loaded %d entries, want 4", len(pts))
	}
}

func TestRunGenReportsUnwritableOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "corpus.jsonl")
	if err := runGen([]string{"-n", "1", "-out", out}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("runGen to a missing directory = %v, want a not-exist error", err)
	}
}
