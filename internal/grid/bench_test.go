package grid_test

// Micro-benchmarks of the grid's warm path — what a sweep re-walked
// against a filled cache spends its time on: loading the scenario file,
// hashing specs, deriving RepKeys, encoding specs and results, and reading
// (and writing) the disk tier's checksummed entries.

import (
	"bytes"
	"encoding/json"
	"testing"

	"charisma/internal/core"
	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/run"
	"charisma/internal/scengen"
)

// benchCorpus is a pinned scengen corpus (single-cell and multicell
// entries), the shape of the repository benchmark's corpus workloads.
func benchCorpus(b *testing.B) []grid.Point {
	b.Helper()
	return scengen.Generate(scengen.Config{Seed: 20260808, Count: 300, MaxCells: 3})
}

// benchSpec is a small real scenario and its hash; its replication
// result gives disk entries the full float surface.
func benchSpec(b *testing.B) (string, grid.JobSpec) {
	b.Helper()
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData, sc.Seed = 10, 3, 7
	sc.WarmupSec, sc.DurationSec = 0.3, 1
	spec := grid.ScenarioSpec(sc)
	h, err := spec.Hash()
	if err != nil {
		b.Fatal(err)
	}
	return h, spec
}

// benchResult is the replication result of benchSpec.
func benchResult(b *testing.B) (string, mac.Result) {
	b.Helper()
	h, spec := benchSpec(b)
	r, err := spec.RunRep(0)
	if err != nil {
		b.Fatal(err)
	}
	return h, r
}

func BenchmarkLoadScenarioFile(b *testing.B) {
	var file bytes.Buffer
	if err := grid.WriteScenarioFile(&file, benchCorpus(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := grid.LoadScenarioFile(bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecHash(b *testing.B) {
	pts := benchCorpus(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := pts[i%len(pts)].Spec.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepKey(b *testing.B) {
	h, spec := benchSpec(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		grid.RepKey(h, run.RepSeed(spec.BaseSeed(), i&63))
	}
}

// BenchmarkDiskCachePut puts every iteration under a fresh key, as a sweep
// does on a miss, so no put renames over an existing entry; the RepKey
// derivation (about 1 µs) is timed with it.
func BenchmarkDiskCachePut(b *testing.B) {
	h, r := benchResult(b)
	c := grid.NewDiskCache(b.TempDir(), nil)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Put(grid.RepKey(h, int64(i)), r)
	}
}

func BenchmarkDiskCacheGet(b *testing.B) {
	h, r := benchResult(b)
	c := grid.NewDiskCache(b.TempDir(), nil)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = grid.RepKey(h, int64(i))
		c.Put(keys[i], r)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss on a filled cache")
		}
	}
}

// BenchmarkCanonicalEncode times the grid's JSON writer on the corpus specs
// and on a replication result, each beside json.Marshal of the same
// values; both write the same bytes.
func BenchmarkCanonicalEncode(b *testing.B) {
	pts := benchCorpus(b)
	_, r := benchResult(b)
	values := map[string]func(i int) any{
		"spec":   func(i int) any { return &pts[i%len(pts)].Spec },
		"result": func(int) any { return &r },
	}
	for _, name := range []string{"spec", "result"} {
		value := values[name]
		b.Run(name+"/appendCanonical", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				var ok bool
				if buf, ok = grid.AppendCanonical(buf[:0], value(i)); !ok {
					b.Fatal("no canonical encoding")
				}
			}
		})
		b.Run(name+"/json.Marshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := json.Marshal(value(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
