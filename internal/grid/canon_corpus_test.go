package grid_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/scengen"
)

// corpusDoc is the document WriteScenarioFile writes for p.
func corpusDoc(p grid.Point) grid.ScenarioDoc {
	d := grid.ScenarioDoc{Kind: p.Spec.Kind, Scenario: p.Spec.Scenario, Multicell: p.Spec.Multicell}
	if p.Replications > 1 {
		d.Replications = p.Replications
	}
	return d
}

// TestWrittenCorpusIsCanonical: every line WriteScenarioFile writes for
// the benchmark's 1,500-entry corpus takes the canonical path and decodes
// to the document it was written from. A writer change (indentation, a
// reordered or renamed field) fails here instead of quietly sending the
// warm path back through encoding/json.
func TestWrittenCorpusIsCanonical(t *testing.T) {
	pts := scengen.Generate(scengen.Config{Seed: 20260808, Count: 1500, MaxCells: 3})
	var file bytes.Buffer
	if err := grid.WriteScenarioFile(&file, pts); err != nil {
		t.Fatal(err)
	}
	var multicell, speeds, phySet, phyNull int
	sc := bufio.NewScanner(&file)
	sc.Buffer(nil, 1<<20)
	for i := 0; sc.Scan(); i++ {
		want := corpusDoc(pts[i])
		var got grid.ScenarioDoc
		if !grid.DecodeCanonical(sc.Bytes(), &got) {
			t.Fatalf("line %d is not canonical:\n%s", i+1, sc.Bytes())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d decodes to another document", i+1)
		}
		if b, _ := json.Marshal(want); !bytes.Equal(b, sc.Bytes()) {
			t.Fatalf("line %d is not json.Marshal of its document", i+1)
		}
		switch s := pts[i].Spec.Scenario; {
		case s == nil:
			multicell++
			if pts[i].Spec.Multicell.PHY.Etas != nil {
				phySet++
			}
		case s.SpeedsKmh != nil:
			speeds++
			fallthrough
		default:
			if s.PHY.Etas == nil {
				phyNull++
			}
		}
	}
	if multicell == 0 || speeds == 0 || phySet == 0 || phyNull == 0 {
		t.Fatalf("corpus lacks a shape: %d multicell, %d with speeds, %d PHY slices set, %d null", multicell, speeds, phySet, phyNull)
	}
}

// TestCorpusEncodesCanonically: appendCanonical answers with json.Marshal's
// bytes for every spec of the benchmark's 1,500-entry corpus and for the
// result of every replication the corpus runs, so no spec hash, cache
// entry or wire body of a corpus sweep falls back to json.Marshal; and
// each spec's Hash is SHA-256 over json.Marshal's bytes.
func TestCorpusEncodesCanonically(t *testing.T) {
	pts := scengen.Generate(scengen.Config{Seed: 20260808, Count: 1500, MaxCells: 3})
	check := func(what string, v any) []byte {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, ok := grid.AppendCanonical(nil, v); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: appendCanonical answered %v with\n%s\njson.Marshal writes\n%s", what, ok, got, want)
		}
		return want
	}
	type job struct{ point, rep int }
	var jobs []job
	for i, p := range pts {
		sum := sha256.Sum256(check("spec", p.Spec))
		if h, err := p.Spec.Hash(); err != nil || h != hex.EncodeToString(sum[:]) {
			t.Fatalf("point %d: Hash %s (%v), want SHA-256 over json.Marshal's bytes", i, h, err)
		}
		for rep := 0; rep < p.Replications; rep++ {
			jobs = append(jobs, job{i, rep})
		}
	}

	results := make([]mac.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	lanes := runtime.GOMAXPROCS(0)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := lane; j < len(jobs); j += lanes {
				results[j], errs[j] = pts[jobs[j].point].Spec.RunRep(jobs[j].rep)
			}
		}()
	}
	wg.Wait()
	for j, r := range results {
		if errs[j] != nil {
			t.Fatal(errs[j])
		}
		check("result", r)
	}
	t.Logf("%d specs, %d results", len(pts), len(results))
}
