package scengen

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"charisma/internal/grid"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Count: 30, MaxCells: 3}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different corpora")
	}
}

func TestGenerateExtendsWithoutDisturbing(t *testing.T) {
	short := Generate(Config{Seed: 7, Count: 10, MaxCells: 3})
	long := Generate(Config{Seed: 7, Count: 25, MaxCells: 3})
	if !reflect.DeepEqual(short, long[:10]) {
		t.Fatal("growing Count disturbed existing corpus entries")
	}
	for i := range short {
		if got := One(Config{Seed: 7, Count: 25, MaxCells: 3}, i); !reflect.DeepEqual(got, short[i]) {
			t.Fatalf("One(%d) disagrees with Generate", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 1, Count: 5})
	b := Generate(Config{Seed: 2, Count: 5})
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds generated identical corpora")
	}
}

func TestGeneratedCorpusLoadsAndValidates(t *testing.T) {
	// Every generated entry must survive the scenario-file round trip:
	// write → strict load → identical content hashes.
	pts := Generate(Config{Seed: 99, Count: 40, MaxCells: 4})
	var buf bytes.Buffer
	if err := grid.WriteScenarioFile(&buf, pts); err != nil {
		t.Fatal(err)
	}
	loaded, err := grid.LoadScenarioFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(pts) {
		t.Fatalf("wrote %d entries, loaded %d", len(pts), len(loaded))
	}
	multicells := 0
	for i := range pts {
		h1, err := pts[i].Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := loaded[i].Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Errorf("entry %d: hash drifted through write→load", i)
		}
		if pts[i].Spec.Kind == grid.KindMulticell {
			multicells++
		}
	}
	if multicells == 0 {
		t.Error("corpus of 40 with MaxCells=4 generated no multi-cell entries")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative count", Config{Count: -1}, "Count"},
		{"negative max voice", Config{Count: 5, MaxVoice: -2}, "MaxVoice"},
		{"negative max data", Config{Count: 5, MaxData: -1}, "MaxData"},
		{"multicell frac above one", Config{Count: 5, MaxCells: 3, MulticellFrac: 1.5}, "MulticellFrac"},
		{"negative multicell frac", Config{Count: 5, MaxCells: 3, MulticellFrac: -0.1}, "MulticellFrac"},
		{"NaN multicell frac", Config{Count: 5, MaxCells: 3, MulticellFrac: math.NaN()}, "MulticellFrac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ce *ConfigError
			if err := tc.cfg.Validate(); !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("rejected field %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

func TestConfigValidateAccepts(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Count: 20},
		{Count: 3, MaxVoice: 1, MaxData: 0, MaxCells: 4, MulticellFrac: 1},
		{Count: 3, MaxCells: 2, MulticellFrac: 0},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
		}
		Generate(cfg) // a valid config must generate without panicking
	}
}
