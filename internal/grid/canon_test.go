package grid

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
)

// canonFloats are the float64 values json.Marshal formats at its edges:
// signed zero, subnormals, both sides of the 1e-6 and 1e21 switches
// between 'f' and 'e' notation, and the extremes.
var canonFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072009e-308, 2.2250738585072014e-308, 1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6,
	0.1, 1.0 / 3, 12.5, 1e20, 9.999999999999999e20, 1e21, 1.0000000000000002e21,
	math.MaxFloat64, -math.MaxFloat64, 1e-300, -2.5e-8,
}

// canonStrings mix plain ASCII with every case json.Marshal escapes
// (quote, backslash, control bytes, HTML characters, U+2028/U+2029) and
// non-ASCII UTF-8, which is written raw.
var canonStrings = []string{
	"", "charisma", "dtdma-vr", `<a&b> "q" \ é`, "tab\tnew\nline", "\x00\x1f", "\u2028\u2029",
	"日本語", "\ufffd", "~!@#$%^*()_+{}|:?,./;'[]=-`", "\x7f",
}

// fillRandom sets v, which holds its zero value, to a random value: every
// field set, slices nil, empty or filled, pointers nil or set. Strings are
// valid UTF-8, the only strings json.Marshal preserves.
func fillRandom(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(r, v.Field(i))
			}
		}
	case reflect.Pointer:
		if r.IntN(4) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(r, v.Elem())
		}
	case reflect.Slice:
		switch n := r.IntN(5); n {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			k := n + r.IntN(8)
			v.Set(reflect.MakeSlice(v.Type(), k, k))
			for i := 0; i < v.Len(); i++ {
				fillRandom(r, v.Index(i))
			}
		}
	case reflect.String:
		if r.IntN(3) == 0 {
			b := make([]byte, r.IntN(12))
			for i := range b {
				b[i] = byte(0x20 + r.IntN(0x5f))
			}
			v.SetString(string(b))
			return
		}
		v.SetString(canonStrings[r.IntN(len(canonStrings))])
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 1)
	case reflect.Float64:
		f := canonFloats[r.IntN(len(canonFloats))]
		if r.IntN(2) == 0 {
			for f = math.Float64frombits(r.Uint64()); math.IsNaN(f) || math.IsInf(f, 0); {
				f = math.Float64frombits(r.Uint64())
			}
		}
		v.SetFloat(f)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, -1, 1, math.MinInt64, math.MaxInt64, r.Int64() - r.Int64(), int64(r.IntN(100))}[r.IntN(7)])
	case reflect.Uint64:
		v.SetUint([]uint64{0, 1, math.MaxUint64, r.Uint64(), uint64(r.IntN(1000))}[r.IntN(5)])
	default:
		panic("fillRandom: no generator for " + v.Type().String())
	}
}

// TestCanonicalRoundTrip: json.Marshal's bytes of any mac.Result or
// scenarioDoc decode canonically to a DeepEqual value that re-encodes to
// the same bytes (which also pins the sign of a zero).
func TestCanonicalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 2026))
	check := func(t *testing.T, x any) {
		t.Helper()
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		y := reflect.New(reflect.TypeOf(x))
		if !decodeCanonical(b, y.Interface()) {
			t.Fatalf("no canonical answer for json.Marshal output\n%s", b)
		}
		if !reflect.DeepEqual(x, y.Elem().Interface()) {
			t.Fatalf("canonical decode differs from the encoded value\n%s", b)
		}
		if b2, _ := json.Marshal(y.Elem().Interface()); !bytes.Equal(b, b2) {
			t.Fatalf("canonical decode re-encodes differently\n%s\n%s", b, b2)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[mac.Result](), reflect.TypeFor[scenarioDoc]()} {
		t.Run(typ.Name(), func(t *testing.T) {
			check(t, reflect.Zero(typ).Interface())
			for i := 0; i < 2000; i++ {
				v := reflect.New(typ).Elem()
				fillRandom(r, v)
				check(t, v.Interface())
			}
		})
	}
	t.Run("documents", func(t *testing.T) {
		sc := tinyScenario(core.ProtoCharisma, 3, 2)
		sc.SpeedsKmh = []float64{0.5, 120, 1e-7, 1e21, 33.333333333333336}
		mp := tinyMulticell()
		mp.PHY.Etas = []float64{}
		check(t, scenarioDoc{Kind: KindScenario, Scenario: &sc, Replications: 3})
		check(t, scenarioDoc{Multicell: &mp})
		check(t, scenarioDoc{Scenario: &core.Scenario{Protocol: `<a&b> "q" \ é`}})
		check(t, mac.Result{Protocol: `<a&b> "q" \ é`, Frames: 1e-300, VoiceGenerated: math.MaxUint64})
	})
}

// checkCanonical is the decoder's oracle on one input: when
// decodeCanonical answers for T, the strict decode accepts the same bytes
// and yields a DeepEqual value. It reports whether decodeCanonical
// answered.
func checkCanonical[T any](t *testing.T, b []byte) bool {
	t.Helper()
	var got T
	if !decodeCanonical(b, &got) {
		if !reflect.ValueOf(got).IsZero() {
			t.Fatalf("%T: no answer, but the target was left set: %+v", got, got)
		}
		return false
	}
	var want T
	if err := strictDecode(b, &want); err != nil {
		t.Fatalf("%T: canonical answer on bytes the strict decode refuses (%v):\n%q", got, err, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: canonical answer %+v differs from the strict decode %+v:\n%q", got, got, want, b)
	}
	return true
}

// canonLine is a written scenario line with a per-station speed list.
const canonLine = `{"Kind":"scenario","Scenario":{"Protocol":"rama","NumVoice":3,"NumData":0,"UseQueue":false,"Seed":-9,"WarmupSec":0.25,"DurationSec":1e-7,"Channel":{"SpeedKmh":50,"DopplerHz":0,"CoherenceScale":0,"ShadowMeanDB":0,"ShadowSigmaDB":4,"ShadowCoherenceSec":1},"PHY":{"MeanSNRdB":0,"TargetBER":0,"Etas":null,"ThresholdsDB":[],"FixedThresholdDB":0,"CSIMargin":0},"MAC":{"Geometry":{"FrameSymbols":0,"MinislotSymbols":0,"InfoSlotSymbols":0,"CharismaRequestSlots":0,"CharismaPilotSlots":0,"CharismaGrantOverheadSymbols":0,"DTDMARequestSlots":0,"DTDMAInfoSlots":0,"RAMAAuctionSlots":0,"RAMAAuctionSymbols":0,"RAMAInfoSlots":0,"DRMAInfoSlots":0,"DRMAMinislotsPerSlot":0,"RMAVMaxGrantSlots":0,"VoicePeriod":0},"PermVoice":0,"PermData":0,"UseQueue":false,"QueueCap":0,"CSIEstNoiseStd":0,"CSIValidityFrames":0,"StaleDecayPerFrame":0,"Charisma":{"Alpha":0,"BetaV":0,"BetaD":0,"VoiceOffset":0,"LambdaV":0,"LambdaD":0,"DisableCSIRefresh":false,"FairnessExponent":0,"FairnessMemory":0}},"SpeedsKmh":[1,2.5,-0]}}`

// canonLineWith is canonLine with its first old replaced by new.
func canonLineWith(old, new string) string { return strings.Replace(canonLine, old, new, 1) }

// canonCases are inputs the decoder must answer (want) or refuse; the
// refused ones are bytes json.Marshal would not write for the type.
var canonCases = []struct {
	name string
	doc  string
	want bool
}{
	{"scenario line", canonLine, true},
	{"null slice", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":null`), true},
	{"empty slice", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":[]`), true},
	{"omitempty fields absent", `{}`, true},
	{"omitempty field present and zero", `{"Kind":"","Scenario":null,"Replications":0}`, true},
	{"escaped string", `{"Kind":"a\"b\\c\u00e9\ud83d\ude00"}`, true},
	{"raw UTF-8", `{"Kind":"é日本"}`, true},
	{"invalid UTF-8 repaired as encoding/json does", "{\"Kind\":\"a\xffb\"}", true},
	{"upper-case exponent", canonLineWith(`"DurationSec":1e-7`, `"DurationSec":1E-7`), true},
	{"whitespace", `{"Kind": "scenario"}`, false},
	{"leading whitespace", ` {}`, false},
	{"trailing newline", "{}\n", false},
	{"trailing data", `{}{}`, false},
	{"reordered", `{"Replications":2,"Kind":"scenario"}`, false},
	{"repeated key", `{"Kind":"a","Kind":"b"}`, false},
	{"lowerCamel key", `{"kind":"scenario"}`, false},
	{"unknown key", `{"Kind":"scenario","Bogus":1}`, false},
	{"leading comma", `{,"Kind":"scenario"}`, false},
	{"trailing comma", `{"Kind":"scenario",}`, false},
	{"top-level null", `null`, false},
	{"empty", ``, false},
	{"truncated", `{"Kind":"scen`, false},
	{"truncated line", canonLine[:len(canonLine)-3], false},
	{"control byte in string", "{\"Kind\":\"a\x01b\"}", false},
	{"bad escape", `{"Kind":"a\qb"}`, false},
	{"int written as float", `{"Replications":1.0}`, false},
	{"int with exponent", `{"Replications":1e2}`, false},
	{"int overflow", `{"Replications":9223372036854775808}`, false},
	{"leading zero", `{"Replications":01}`, false},
	{"bare fraction", `{"Replications":.5}`, false},
	{"plus sign", `{"Replications":+1}`, false},
	{"string for int", `{"Replications":"1"}`, false},
	{"null for int", `{"Replications":null}`, false},
	{"float out of range", canonLineWith(`"WarmupSec":0.25`, `"WarmupSec":1e400`), false},
	{"empty fraction", canonLineWith(`"WarmupSec":0.25`, `"WarmupSec":1.`), false},
	{"empty exponent", canonLineWith(`"WarmupSec":0.25`, `"WarmupSec":1e+`), false},
	{"missing field", canonLineWith(`"NumData":0,`, ``), false},
	{"bool as int", canonLineWith(`"UseQueue":false`, `"UseQueue":0`), false},
	{"scalar for slice", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":1`), false},
	{"string in float slice", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":["1"]`), false},
	{"slice without comma", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":[1 2]`), false},
	{"slice with trailing comma", canonLineWith(`"SpeedsKmh":[1,2.5,-0]`, `"SpeedsKmh":[1,]`), false},
	{"axis", canonLineWith(`"NumVoice":3`, `"NumVoice":{"sweep":[1,2]}`), false},
}

// TestCanonicalAnswersOnlyWhereStrictAgrees runs the oracle over the
// case table for both decoded types, and checks which scenario-line cases
// answer.
func TestCanonicalAnswersOnlyWhereStrictAgrees(t *testing.T) {
	for _, c := range canonCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkCanonical[scenarioDoc](t, []byte(c.doc)); got != c.want {
				t.Fatalf("answered %v, want %v", got, c.want)
			}
			checkCanonical[mac.Result](t, []byte(c.doc))
		})
	}
	// Unsigned fields refuse what encoding/json refuses.
	body, _ := json.Marshal(mac.Result{})
	for _, lit := range []string{"-1", "18446744073709551616", "1.5", "1E2"} {
		b := bytes.Replace(body, []byte(`"VoiceGenerated":0`), []byte(`"VoiceGenerated":`+lit), 1)
		if checkCanonical[mac.Result](t, b) {
			t.Errorf("VoiceGenerated %s: answered", lit)
		}
	}
	b := bytes.Replace(body, []byte(`"VoiceGenerated":0`), []byte(`"VoiceGenerated":18446744073709551615`), 1)
	if !checkCanonical[mac.Result](t, b) {
		t.Error("VoiceGenerated at its maximum: no answer")
	}
}

// FuzzCanonical: on arbitrary bytes, for both decoded types, a canonical
// answer implies the strict decode accepts the same bytes and yields a
// DeepEqual value.
func FuzzCanonical(f *testing.F) {
	for _, c := range canonCases {
		f.Add([]byte(c.doc))
	}
	body, _ := json.Marshal(mac.Result{Protocol: "charisma", Frames: 400, VoiceGenerated: 343, VoiceLossRate: 0.0123, Reps: mac.RepStats{Replications: 1}})
	f.Add(body)
	sc := tinyScenario(core.ProtoCharisma, 3, 2)
	sc.SpeedsKmh = []float64{1, 2, 3, 4, 5}
	line, _ := json.Marshal(scenarioDoc{Kind: KindScenario, Scenario: &sc, Replications: 2})
	f.Add(line)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical[mac.Result](t, data)
		checkCanonical[scenarioDoc](t, data)
	})
}

// TestCanonicalTypesSupported is the reflection guard: every type the warm
// path decodes has a canonical plan, so neither a cache entry nor a
// written scenario line can silently fall back to (or be quarantined for
// want of) the canonical decode. A type the plan cannot mirror has none,
// and decodeCanonical refuses even json.Marshal's own bytes of it.
func TestCanonicalTypesSupported(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[scenarioDoc](), reflect.TypeFor[mac.Result]()} {
		if _, err := buildCanon(typ); err != nil {
			t.Errorf("%v has no canonical plan: %v", typ, err)
		}
	}
	type embedded struct{ A int }
	for _, c := range []struct {
		v         any
		supported bool
	}{
		{&struct{ M map[string]int }{M: map[string]int{"a": 1}}, false},
		{&struct{ I any }{I: 1.5}, false},
		{&struct{ A [2]int }{}, false},
		{&struct{ B []byte }{B: []byte("x")}, false},
		{&struct{ embedded }{}, false},
		{&struct{ T time.Time }{}, false},
		{&struct{ N json.Number }{N: "1"}, false},
		{&struct {
			S int `json:",string"`
		}{S: 1}, false},
		{&struct {
			R int `json:"renamed"`
		}{}, false},
		{&struct{ P *map[string]int }{}, false},
		{&struct{ S []any }{}, false},
		{&struct {
			A int
			b int
		}{A: 1, b: 2}, true}, // unexported fields are neither written nor read
		{&struct{ D time.Duration }{D: time.Second}, true}, // a plain int64
	} {
		typ := reflect.TypeOf(c.v).Elem()
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildCanon(typ); (err == nil) != c.supported {
			t.Errorf("%v: plan error %v, want supported=%v", typ, err, c.supported)
		}
		if got := decodeCanonical(b, reflect.New(typ).Interface()); got != c.supported {
			t.Errorf("%v: decodeCanonical(%s) = %v", typ, b, got)
		}
	}
}
