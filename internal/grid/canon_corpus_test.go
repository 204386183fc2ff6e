package grid_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"charisma/internal/grid"
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
