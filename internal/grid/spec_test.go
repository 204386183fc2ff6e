package grid

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"charisma/internal/core"
	"charisma/internal/multicell"
	"charisma/internal/run"
)

func tinyScenario(protocol string, nv, nd int) core.Scenario {
	sc := core.DefaultScenario(protocol)
	sc.NumVoice, sc.NumData = nv, nd
	sc.Seed = 7
	sc.WarmupSec, sc.DurationSec = 0.3, 1.0
	return sc
}

func tinyMulticell() multicell.Params {
	p := multicell.DefaultParams()
	p.NumVoice = 16
	p.Seed = 7
	p.WarmupSec, p.DurationSec = 0.5, 1.5
	return p
}

func TestSpecValidateShape(t *testing.T) {
	if err := ScenarioSpec(tinyScenario(core.ProtoCharisma, 5, 0)).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := MulticellSpec(tinyMulticell()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []JobSpec{
		{},
		{Kind: "bogus"},
		{Kind: KindScenario},
		{Kind: KindMulticell},
		{Kind: KindScenario, Scenario: &core.Scenario{}, Multicell: &multicell.Params{}},
		{Kind: KindMulticell, Scenario: &core.Scenario{}, Multicell: &multicell.Params{}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestSpecCodecRoundTrip(t *testing.T) {
	sc := tinyScenario(core.ProtoCharisma, 5, 3)
	sc.SpeedsKmh = []float64{10, 20.5, 30, 1.0 / 3.0, 80, 12.125, 99.9, 0.0001}
	for _, spec := range []JobSpec{ScenarioSpec(sc), MulticellSpec(tinyMulticell())} {
		b, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSpec(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", spec, got)
		}
		b2, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("encoding not canonical:\n%s\n%s", b, b2)
		}
	}
}

func TestSpecDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("{"),
		[]byte(`{"Kind":"scenario"} trailing`),
		[]byte(`{"Kind":"scenario"}}`),
		[]byte(`{"Kind":"scenario"}]`),
		[]byte(`{"Kind":"scenario"}}}`),
		[]byte(`{"Kind":"scenario"} {}`),
		[]byte(`{"Kind":"scenario","NoSuchField":1}`),
	}
	for i, b := range cases {
		if _, err := DecodeSpec(b); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSpecHashStableAndSensitive(t *testing.T) {
	a := ScenarioSpec(tinyScenario(core.ProtoCharisma, 5, 0))
	h1, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ScenarioSpec(tinyScenario(core.ProtoCharisma, 5, 0)).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("equal specs hash differently")
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}
	b := ScenarioSpec(tinyScenario(core.ProtoCharisma, 6, 0))
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb == h1 {
		t.Fatal("different specs share a hash")
	}
	// Seeds are part of identity: a different base seed is different work.
	c := tinyScenario(core.ProtoCharisma, 5, 0)
	c.Seed++
	hc, err := ScenarioSpec(c).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == h1 {
		t.Fatal("seed not part of the content hash")
	}
}

func TestRepKeyDistinctPerRep(t *testing.T) {
	spec := ScenarioSpec(tinyScenario(core.ProtoCharisma, 5, 0))
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for rep := 0; rep < 8; rep++ {
		k := RepKey(h, run.RepSeed(spec.BaseSeed(), rep))
		if seen[k] {
			t.Fatalf("rep %d reuses a key", rep)
		}
		seen[k] = true
	}
}

// TestRunRepMatchesRunner pins the seed discipline: RunRep(rep) must equal
// a direct Scenario.Run under run.RepSeed — the serial reference's run for
// the same (scenario, rep).
func TestRunRepMatchesRunner(t *testing.T) {
	sc := tinyScenario(core.ProtoRAMA, 8, 2)
	spec := ScenarioSpec(sc)
	for _, rep := range []int{0, 2} {
		got, err := spec.RunRep(rep)
		if err != nil {
			t.Fatal(err)
		}
		ref := sc
		ref.Seed = run.RepSeed(sc.Seed, rep)
		want, err := ref.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d differs from direct run", rep)
		}
	}
}

// FuzzSpecCodec checks the JobSpec codec on arbitrary bytes: decoding
// never panics, and any accepted input re-encodes canonically —
// decode(encode(decode(b))) == decode(b) with a stable hash.
func FuzzSpecCodec(f *testing.F) {
	if b, err := ScenarioSpec(tinyScenario(core.ProtoCharisma, 5, 0)).Encode(); err == nil {
		f.Add(b)
	}
	if b, err := MulticellSpec(tinyMulticell()).Encode(); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"Kind":"scenario"}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		b, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted spec fails to encode: %v", err)
		}
		again, err := DecodeSpec(b)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("codec not idempotent:\n%+v\n%+v", spec, again)
		}
		h1, err1 := spec.Hash()
		h2, err2 := again.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash unstable across round trip: %q/%v vs %q/%v", h1, err1, h2, err2)
		}
	})
}
