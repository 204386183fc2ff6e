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
	"unicode/utf8"

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

// leaves are the strings and floats fillRandom draws from, besides
// random printable ASCII and random finite bit patterns.
type leaves struct {
	strs   []string
	floats []float64
}

var canonLeaves = leaves{canonStrings, canonFloats}

// fillRandom sets v, which holds its zero value, to a random value: every
// field set, slices nil, empty or filled, pointers nil or set, strings and
// floats drawn from l or at random.
func fillRandom(r *rand.Rand, v reflect.Value, l leaves) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(r, v.Field(i), l)
			}
		}
	case reflect.Pointer:
		if r.IntN(4) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(r, v.Elem(), l)
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
				fillRandom(r, v.Index(i), l)
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
		v.SetString(l.strs[r.IntN(len(l.strs))])
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 1)
	case reflect.Float64:
		f := l.floats[r.IntN(len(l.floats))]
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
				fillRandom(r, v, canonLeaves)
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

// encodeTypes are the types the grid writes with appendJSON and reads
// back: spec encodings, cache-entry bodies, scenario lines and the HTTP
// task, result and heartbeat bodies.
var encodeTypes = []reflect.Type{
	reflect.TypeFor[JobSpec](), reflect.TypeFor[mac.Result](), reflect.TypeFor[scenarioDoc](),
	reflect.TypeFor[wireTask](), reflect.TypeFor[wireResult](), reflect.TypeFor[wireBeat](),
}

// checkEncode is the encoder's oracle on one value: appendCanonical
// answers exactly where v's type has a plan and json.Marshal succeeds
// without escaping a string, and then appends json.Marshal's bytes;
// appendJSON appends json.Marshal's bytes or returns its error. Both
// leave what dst already held alone.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, werr := json.Marshal(v)
	plain := werr == nil && v != nil && canonPlan(reflect.TypeOf(v)) != nil && bytes.IndexByte(want, '\\') < 0 &&
		bytes.IndexFunc(want, func(r rune) bool { return r >= utf8.RuneSelf }) < 0
	prefix := []byte("[prefix]")
	got, ok := appendCanonical(bytes.Clone(prefix), v)
	switch {
	case ok != plain:
		t.Fatalf("%T: appendCanonical answered %v, want %v (json.Marshal: %s, %v)", v, ok, plain, want, werr)
	case ok && !bytes.Equal(got, append(bytes.Clone(prefix), want...)):
		t.Fatalf("%T: appendCanonical wrote\n%s\njson.Marshal writes\n%s", v, got[len(prefix):], want)
	case !ok && !bytes.Equal(got, prefix):
		t.Fatalf("%T: appendCanonical refused but changed dst to %q", v, got)
	}
	got, err := appendJSON(bytes.Clone(prefix), v)
	switch {
	case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
		t.Fatalf("%T: appendJSON error %v, json.Marshal error %v", v, err, werr)
	case err == nil && !bytes.Equal(got, append(bytes.Clone(prefix), want...)):
		t.Fatalf("%T: appendJSON wrote\n%s\njson.Marshal writes\n%s", v, got[len(prefix):], want)
	}
}

// TestAppendCanonicalMatchesMarshal runs the encoder's oracle over random
// values of every type the grid writes (edge floats, escaped and
// non-ASCII strings, nil and empty slices, nil pointers), through a
// pointer too, and over hand-picked edges: every float json.Marshal
// formats at a switch, at both widths, NaN and ±Inf, every escaping
// string, omitempty on zero, negative zero and empty slices.
func TestAppendCanonicalMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 2026))
	for _, typ := range encodeTypes {
		t.Run(typ.Name(), func(t *testing.T) {
			checkEncode(t, reflect.Zero(typ).Interface())
			checkEncode(t, reflect.Zero(reflect.PointerTo(typ)).Interface())
			for i := 0; i < 1000; i++ {
				v := reflect.New(typ)
				fillRandom(r, v.Elem(), canonLeaves)
				checkEncode(t, v.Elem().Interface())
				checkEncode(t, v.Interface())
			}
		})
	}
	t.Run("edges", func(t *testing.T) {
		type omit struct {
			F float64       `json:",omitempty"`
			G float32       `json:",omitempty"`
			S []float64     `json:",omitempty"`
			B bool          `json:",omitempty"`
			I int8          `json:",omitempty"`
			U uint16        `json:",omitempty"`
			P *mac.RepStats `json:",omitempty"`
			R mac.RepStats
		}
		for _, f := range append(canonFloats, math.NaN(), math.Inf(1), math.Inf(-1), 1.5e-45, 3.4028235e38, 1e-6-1e-22) {
			checkEncode(t, f)
			checkEncode(t, float32(f))
			checkEncode(t, mac.Result{Frames: f})
			checkEncode(t, omit{F: f, G: float32(f)})
			checkEncode(t, []float64{f, -f})
		}
		for _, s := range append(canonStrings, "a\u2028", "x&y", "<", ">", `"`, `\`, "\x80", "ok ~\x7f") {
			checkEncode(t, mac.Result{Protocol: s})
			checkEncode(t, wireBeat{Session: s})
		}
		for _, v := range []any{
			omit{}, omit{S: []float64{}}, omit{S: []float64{0}}, omit{P: &mac.RepStats{}}, omit{I: -128, U: 65535, B: true},
			JobSpec{Kind: KindScenario}, scenarioDoc{}, scenarioDoc{Replications: 2},
			scenarioDoc{Scenario: &core.Scenario{SpeedsKmh: []float64{}}},
			(*JobSpec)(nil), []JobSpec(nil), []JobSpec{}, struct{ A any }{}, map[string]int{"a": 1}, nil,
		} {
			checkEncode(t, v)
		}
	})
}

// FuzzAppendCanonical runs the encoder's oracle on a random value of each
// type the grid writes, drawn from the fuzzed seed with the fuzzed string
// and floats among its leaves; slices come out nil, empty or filled and
// pointers nil or set as the seed draws them. The seeds cover escaped and
// non-ASCII strings, negative zero, subnormals, floats either side of
// 1e-6 and 1e21, NaN and ±Inf.
func FuzzAppendCanonical(f *testing.F) {
	for i, s := range canonStrings {
		f.Add(uint64(i), s, canonFloats[i], canonFloats[len(canonFloats)-1-i])
	}
	f.Add(uint64(40), "charisma", math.NaN(), 0.5)
	f.Add(uint64(41), "rama", math.Inf(1), math.Inf(-1))
	f.Add(uint64(42), "", math.Copysign(0, -1), math.SmallestNonzeroFloat64)
	f.Add(uint64(43), "a\xffb", 9.999999999999999e-7, 1e21)
	f.Fuzz(func(t *testing.T, seed uint64, s string, x, y float64) {
		r := rand.New(rand.NewPCG(seed, 26))
		typ := encodeTypes[seed%uint64(len(encodeTypes))]
		v := reflect.New(typ)
		fillRandom(r, v.Elem(), leaves{[]string{s, "", "charisma"}, []float64{x, y, 0}})
		checkEncode(t, v.Elem().Interface())
	})
}

// TestCanonicalTypesSupported is the reflection guard: every type the grid
// writes and reads back has a canonical plan, so neither a cache entry, a
// written scenario line, a spec hash nor a wire body can silently fall
// back to encoding/json (or be quarantined for want of the canonical
// decode). A type the plan cannot mirror has none: appendCanonical
// refuses it, and decodeCanonical refuses even json.Marshal's own bytes
// of it.
func TestCanonicalTypesSupported(t *testing.T) {
	for _, typ := range encodeTypes {
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
		if _, got := appendCanonical(nil, c.v); got != c.supported {
			t.Errorf("%v: appendCanonical answered %v", typ, got)
		}
	}
}
