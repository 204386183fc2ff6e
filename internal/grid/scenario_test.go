package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/frame"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/phy"
)

func TestLoadScenarioFileSingle(t *testing.T) {
	const file = `
# a comment, then a blank line

{"scenario": {"protocol": "charisma", "numVoice": 30, "numData": 5, "seed": 7, "warmupSec": 0.25, "durationSec": 1}, "replications": 3}
`
	pts, err := LoadScenarioFile(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Replications != 3 {
		t.Errorf("replications = %d, want 3", p.Replications)
	}
	if p.Spec.Kind != KindScenario {
		t.Errorf("kind = %q (not inferred)", p.Spec.Kind)
	}
	sc := p.Spec.Scenario
	if sc.Protocol != "charisma" || sc.NumVoice != 30 || sc.NumData != 5 || sc.Seed != 7 {
		t.Errorf("scenario fields mangled: %+v", sc)
	}
}

func TestLoadScenarioFileSweepExpansion(t *testing.T) {
	const file = `{"scenario": {"protocol": {"sweep": ["charisma", "rama"]}, "numVoice": {"range": {"from": 20, "to": 60, "step": 20}}, "durationSec": 1}}`
	pts, err := LoadScenarioFile(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 3 populations; axes order by path, so
	// scenario.numVoice comes first and scenario.protocol varies fastest.
	want := []struct {
		proto string
		nv    int
	}{
		{"charisma", 20}, {"rama", 20},
		{"charisma", 40}, {"rama", 40},
		{"charisma", 60}, {"rama", 60},
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, w := range want {
		sc := pts[i].Spec.Scenario
		if sc.Protocol != w.proto || sc.NumVoice != w.nv {
			t.Errorf("point %d: (%s, %d), want (%s, %d)", i, sc.Protocol, sc.NumVoice, w.proto, w.nv)
		}
	}
}

func TestLoadScenarioFileMulticell(t *testing.T) {
	const file = `{"multicell": {"cells": {"sweep": [2, 3]}, "protocol": "charisma", "numVoice": 10, "decisionPeriodFrames": 40, "durationSec": 1}}`
	pts, err := LoadScenarioFile(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, cells := range []int{2, 3} {
		if pts[i].Spec.Kind != KindMulticell || pts[i].Spec.Multicell.Cells != cells {
			t.Errorf("point %d: kind %q cells %d", i, pts[i].Spec.Kind, pts[i].Spec.Multicell.Cells)
		}
	}
}

func TestLoadScenarioFileRejects(t *testing.T) {
	cases := []struct {
		name string
		file string
	}{
		{"empty", ""},
		{"comment only", "# nothing\n"},
		{"not an object", `[1,2,3]`},
		{"unknown field", `{"scenario": {"protocol": "charisma", "numVoice": 1, "bogus": 2}}`},
		{"both payloads", `{"scenario": {"protocol": "charisma", "numVoice": 1}, "multicell": {"cells": 2, "protocol": "charisma", "numVoice": 1, "decisionPeriodFrames": 1}}`},
		{"no payload", `{"replications": 2}`},
		{"kind mismatch", `{"kind": "multicell", "scenario": {"protocol": "charisma", "numVoice": 1}}`},
		{"unknown protocol", `{"scenario": {"protocol": "aloha", "numVoice": 1}}`},
		{"zero population", `{"scenario": {"protocol": "charisma"}}`},
		{"negative replications", `{"scenario": {"protocol": "charisma", "numVoice": 1}, "replications": -1}`},
		{"empty sweep", `{"scenario": {"protocol": "charisma", "numVoice": {"sweep": []}}}`},
		{"descending range", `{"scenario": {"protocol": "charisma", "numVoice": {"range": {"from": 10, "to": 5, "step": 1}}}}`},
		{"zero-step range", `{"scenario": {"protocol": "charisma", "numVoice": {"range": {"from": 1, "to": 5, "step": 0}}}}`},
		{"trailing data", `{"scenario": {"protocol": "charisma", "numVoice": 1}} extra`},
		{"trailing brace", `{"scenario": {"protocol": "charisma", "numVoice": 1}}}`},
		{"trailing bracket", `{"scenario": {"protocol": "charisma", "numVoice": 1}}]`},
		{"trailing brace on a sweep", `{"scenario": {"protocol": "charisma", "numVoice": {"sweep": [1, 2]}}}}`},
		{"second document", `{"scenario": {"protocol": "charisma", "numVoice": 1}} {}`},
		{"null document", `null`},
		{"oversized product", `{"scenario": {"protocol": "charisma", "numVoice": {"range": {"from": 1, "to": 100, "step": 1}}, "numData": {"range": {"from": 1, "to": 100, "step": 1}}}}`},
		{"rmav multicell", `{"multicell": {"cells": 2, "protocol": "rmav", "numVoice": 1, "decisionPeriodFrames": 1}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadScenarioFile(strings.NewReader(c.file)); err == nil {
				t.Fatalf("loaded %q without error", c.file)
			}
		})
	}
}

// TestLoadScenarioFileLongLineNumbered: a line past the length limit is
// reported with its line number, like every other per-line error.
func TestLoadScenarioFileLongLineNumbered(t *testing.T) {
	file := validLine(5) + "\n# comment\n" + `{"scenario": {"protocol": "` + strings.Repeat("x", maxScenarioLine) + `"}}` + "\n"
	_, err := LoadScenarioFile(strings.NewReader(file))
	if err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("err = %v, want a line 3 error", err)
	}
	// An earlier bad line still wins.
	_, err = LoadScenarioFile(strings.NewReader("{}\n" + file))
	if err == nil || !strings.Contains(err.Error(), "line 1:") {
		t.Fatalf("err = %v, want a line 1 error", err)
	}
}

// TestLoadScenarioFileTypedRejections: both spec kinds share the cell
// rules — whole-or-nothing substrate blocks, non-negative populations, a
// frame layout the frame can hold — and a deployment refuses RMAV in any
// spelling. Each failing line surfaces as a *core.ValidationError naming
// the field, with its line number.
func TestLoadScenarioFileTypedRejections(t *testing.T) {
	badGeometry := core.DefaultScenario(core.ProtoCharisma)
	badGeometry.NumVoice = 5
	badGeometry.MAC.Geometry.CharismaPilotSlots = -5
	geometryLine, err := json.Marshal(map[string]any{"scenario": badGeometry})
	if err != nil {
		t.Fatal(err)
	}
	cell := `{"scenario": {"protocol": "charisma", "numVoice": 5, %s}}`
	deployment := `{"multicell": {"cells": 2, "protocol": "charisma", "decisionPeriodFrames": 1, %s}}`
	for name, c := range map[string]struct{ line, field string }{
		"scenario partial PHY":              {fmt.Sprintf(cell, `"phy": {"meanSNRdB": -20}`), "PHY"},
		"scenario partial MAC":              {fmt.Sprintf(cell, `"mac": {"permVoice": 0.9}`), "MAC"},
		"scenario impossible geometry":      {string(geometryLine), "MAC"},
		"multicell partial PHY":             {fmt.Sprintf(deployment, `"numVoice": 5, "phy": {"meanSNRdB": -20}`), "PHY"},
		"multicell partial MAC":             {fmt.Sprintf(deployment, `"numVoice": 5, "mac": {"permVoice": 0.9}`), "MAC"},
		"multicell negative voice":          {fmt.Sprintf(deployment, `"numVoice": -5, "numData": 10`), "NumVoice"},
		"multicell negative data":           {fmt.Sprintf(deployment, `"numVoice": 5, "numData": -1`), "NumData"},
		"multicell RMAV":                    {strings.Replace(fmt.Sprintf(deployment, `"numVoice": 5`), "charisma", "RMAV", 1), "Protocol"},
		"multicell padded rmav":             {strings.Replace(fmt.Sprintf(deployment, `"numVoice": 5`), "charisma", " rmav ", 1), "Protocol"},
		"scenario duration past the clock":  {fmt.Sprintf(cell, `"durationSec": 1e308`), "DurationSec"},
		"scenario warm-up past the clock":   {fmt.Sprintf(cell, `"warmupSec": 3e13`), "WarmupSec"},
		"multicell duration past the clock": {fmt.Sprintf(deployment, `"numVoice": 5, "durationSec": 1e308`), "DurationSec"},
		"scenario negative warm-up":         {fmt.Sprintf(cell, `"warmupSec": -5`), "WarmupSec"},
		"scenario negative duration":        {fmt.Sprintf(cell, `"durationSec": -3`), "DurationSec"},
		"multicell negative duration":       {fmt.Sprintf(deployment, `"numVoice": 5, "durationSec": -1`), "DurationSec"},
		"scenario negative Doppler":         {fmt.Sprintf(cell, channelBlock+`, "dopplerHz": -100}`), "Channel"},
		"scenario negative coherence scale": {fmt.Sprintf(cell, channelBlock+`, "coherenceScale": -3}`), "Channel"},
	} {
		_, err := LoadScenarioFile(strings.NewReader(validLine(5) + "\n" + c.line + "\n"))
		var ve *core.ValidationError
		if !errors.As(err, &ve) || ve.Field != c.field || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%s: err %v, want a line 2 *core.ValidationError for %s", name, err, c.field)
		}
	}
}

// channelBlock opens a channel block that sets speed and shadowing; a
// case appends one more knob and closes it.
const channelBlock = `"channel": {"speedKmh": 50, "shadowSigmaDB": 4, "shadowCoherenceSec": 1`

func validLine(nv int) string {
	return fmt.Sprintf(`{"scenario": {"protocol": "charisma", "numVoice": %d, "durationSec": 1}}`, nv)
}

// TestLoadScenarioFileParallelOrder: however the batches are split over
// the cores, points come back in line order and the error names the
// lowest-numbered failing line with its own message.
func TestLoadScenarioFileParallelOrder(t *testing.T) {
	const n = 1300 // several load batches
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i%100 == 0 {
			b.WriteString("# comment\n\n")
		}
		b.WriteString(validLine(i) + "\n")
	}
	good := b.String()
	pts, err := LoadScenarioFile(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n {
		t.Fatalf("got %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if p.Spec.Scenario.NumVoice != i+1 {
			t.Fatalf("point %d has numVoice %d: out of line order", i, p.Spec.Scenario.NumVoice)
		}
	}

	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")
	lines[700] = `{"scenario": {"protocol": "aloha", "numVoice": 1}}`
	lines[650] = `{"scenario": {"protocol": "charisma", "numVoice": 1, "bogus": 1}}`
	lines[1200] = `not json`
	_, err = LoadScenarioFile(strings.NewReader(strings.Join(lines, "\n")))
	if err == nil || !strings.HasPrefix(err.Error(), "grid: scenario file line 651: ") || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want line 651's unknown-field error", err)
	}
}

// TestExpandLinesFileCapInLineOrder: MaxSpecsPerFile is enforced in line
// order, even when workers skipped lines after passing the cap.
func TestExpandLinesFileCapInLineOrder(t *testing.T) {
	var buf []byte
	var spans []lineSpan
	for i := 1; i <= 40; i++ {
		line := validLine(i)
		if i == 30 {
			line = "{}" // invalid, but past the cap: never reported
		}
		spans = append(spans, lineSpan{no: i, from: len(buf), to: len(buf) + len(line)})
		buf = append(buf, line...)
	}
	_, err := expandLines(make([]Point, MaxSpecsPerFile-5), buf, spans)
	want := fmt.Sprintf("grid: scenario file line 6: expansion exceeds %d specs", MaxSpecsPerFile)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestScenarioRepeatedKeys pins the repeated-key rule: on an axis-free
// line encoding/json decides (last key in document order wins, repeated
// objects merge); on a line with axes the tree round trip decides (a
// repeated key replaces, case variants resolve in sorted key order).
func TestScenarioRepeatedKeys(t *testing.T) {
	cases := []struct {
		name   string
		line   string
		nv, nd []int // per expanded point
		err    bool
	}{
		{name: "scalar, last wins", line: `{"scenario": {"protocol": "charisma", "numVoice": 5, "numVoice": 9}}`, nv: []int{9}, nd: []int{0}},
		{name: "case variants, document order", line: `{"scenario": {"protocol": "charisma", "numVoice": 5, "NumVoice": 7}}`, nv: []int{7}, nd: []int{0}},
		{name: "case variants reversed", line: `{"scenario": {"protocol": "charisma", "NumVoice": 7, "numVoice": 5}}`, nv: []int{5}, nd: []int{0}},
		{name: "objects merge", line: `{"scenario": {"protocol": "charisma", "numVoice": 5}, "scenario": {"numData": 3}}`, nv: []int{5}, nd: []int{3}},
		{name: "axis line: objects replace", line: `{"scenario": {"protocol": "charisma", "numVoice": 5}, "scenario": {"numData": {"sweep": [3, 4]}}}`, err: true},
		{name: "axis line: case variants sorted", line: `{"scenario": {"protocol": "charisma", "numVoice": 5, "NumVoice": 7, "numData": {"sweep": [1, 2]}}}`, nv: []int{5, 5}, nd: []int{1, 2}},
		{name: "axis line: scalar, last wins", line: `{"scenario": {"protocol": "charisma", "numVoice": 9, "numVoice": 5, "numData": {"sweep": [1]}}}`, nv: []int{5}, nd: []int{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pts, err := ExpandScenarioLine([]byte(c.line))
			if c.err {
				if err == nil {
					t.Fatalf("loaded %d points, want an error", len(pts))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(c.nv) {
				t.Fatalf("got %d points, want %d", len(pts), len(c.nv))
			}
			for i, p := range pts {
				if sc := p.Spec.Scenario; sc.NumVoice != c.nv[i] || sc.NumData != c.nd[i] {
					t.Errorf("point %d: numVoice %d numData %d, want %d %d", i, sc.NumVoice, sc.NumData, c.nv[i], c.nd[i])
				}
			}
		})
	}
}

// TestGenericPathDeterministic: the generic path walks object keys in
// sorted order and refuses a range whose keys fold to the same field, so
// a line has one outcome. Both lines once varied with map iteration order:
// the range took "from" or "From" (6 or 10 points), and the walk named
// whichever bad axis it met first.
func TestGenericPathDeterministic(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{`{"scenario": {"protocol": "charisma", "numVoice": {"range": {"from": 1, "From": 5, "to": 10, "step": 1}}}}`,
			`axis scenario.numVoice: range fields "From" and "from" fold to the same name`},
		{`{"scenario": {"protocol": "charisma", "numVoice": {"sweep": []}, "numData": {"range": {"from": 5, "to": 1, "step": 1}}}}`,
			`axis scenario.numData: empty range [5, 1]`},
	} {
		for i := 0; i < 100; i++ {
			pts, err := ExpandScenarioLine([]byte(c.line))
			if err == nil || err.Error() != c.want {
				t.Fatalf("call %d on %s: %d points, error %v; want error %q", i, c.line, len(pts), err, c.want)
			}
		}
	}
}

// TestScenarioSchemaHasNoAxisShapes guards the one-pass decode: a line
// carrying an axis must never strict-decode, which holds while no type in
// the schema has a map or interface field, a custom JSON decoder, or a
// field whose name folds to "sweep" or "range".
func TestScenarioSchemaHasNoAxisShapes(t *testing.T) {
	unmarshaler := reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ.Implements(unmarshaler) || reflect.PointerTo(typ).Implements(unmarshaler) {
			t.Errorf("%s: %v decodes itself", path, typ)
		}
		switch typ.Kind() {
		case reflect.Map, reflect.Interface:
			t.Errorf("%s: %v field", path, typ.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() && !f.Anonymous {
					continue
				}
				name := f.Name
				if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
					name = tag
				}
				if strings.EqualFold(name, "sweep") || strings.EqualFold(name, "range") {
					t.Errorf("%s.%s: field name folds to an axis key", path, f.Name)
				}
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("scenarioDoc", reflect.TypeOf(scenarioDoc{}))
	for _, typ := range []reflect.Type{
		reflect.TypeOf(core.Scenario{}), reflect.TypeOf(multicell.Params{}), reflect.TypeOf(channel.Params{}),
		reflect.TypeOf(phy.Params{}), reflect.TypeOf(mac.Config{}), reflect.TypeOf(frame.Geometry{}),
		reflect.TypeOf(mac.CharismaParams{}),
	} {
		if !seen[typ] {
			t.Errorf("%v is not reached from scenarioDoc: the walk misses part of the schema", typ)
		}
	}
}

// TestScenarioFileZeroKnobsDefault: a channel block whose Doppler
// override and coherence scale are zero loads, and so does a line whose
// windows are zero, each meaning its default.
func TestScenarioFileZeroKnobsDefault(t *testing.T) {
	file := `{"scenario": {"protocol": "charisma", "numVoice": 5, "warmupSec": 0, "durationSec": 0, ` +
		channelBlock + `, "dopplerHz": 0, "coherenceScale": 0}}}`
	if _, err := LoadScenarioFile(strings.NewReader(file)); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioFileDefaultsValidated(t *testing.T) {
	// The raw payload is zero-valued almost everywhere — invalid as-is —
	// but the loader validates the *defaulted* scenario, which runs fine.
	const file = `{"scenario": {"protocol": "drma", "numData": 3}}`
	pts, err := LoadScenarioFile(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if err := pts[0].Spec.Scenario.Validate(); err == nil {
		t.Fatal("raw zero-valued payload unexpectedly valid (defaults leaked into the spec?)")
	}
}

func TestWriteScenarioFileRoundTrip(t *testing.T) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 40, 10
	sc.WarmupSec, sc.DurationSec = 0.25, 1.5
	sc.SpeedsKmh = nil
	mp := multicell.DefaultParams()
	mp.NumVoice, mp.DurationSec = 12, 0.5
	in := []Point{
		{Spec: ScenarioSpec(sc), Replications: 4},
		{Spec: MulticellSpec(mp), Replications: 1},
	}
	var buf bytes.Buffer
	if err := WriteScenarioFile(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadScenarioFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reloading written file: %v\n%s", err, buf.String())
	}
	if len(out) != len(in) {
		t.Fatalf("got %d points, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Replications != in[i].Replications {
			t.Errorf("point %d: replications %d, want %d", i, out[i].Replications, in[i].Replications)
		}
		hin, err := in[i].Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hout, err := out[i].Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hin != hout {
			t.Errorf("point %d: content hash drifted across write→load: %s != %s", i, hin, hout)
		}
	}
}

// repeatedKeys reports whether any object in the JSON document repeats a
// key (case-insensitively, as struct decoding matches them). A malformed
// document reports what precedes the fault; such a line never
// strict-decodes, so both load paths treat it alike anyway.
func repeatedKeys(b []byte) (repeated bool) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var value func() bool
	value = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			var keys []string
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return false
				}
				for _, seen := range keys {
					if strings.EqualFold(seen, k.(string)) {
						repeated = true
					}
				}
				keys = append(keys, k.(string))
				if !value() {
					return false
				}
			}
			_, err = dec.Token()
			return err == nil
		case json.Delim('['):
			for dec.More() {
				if !value() {
					return false
				}
			}
			_, err = dec.Token()
			return err == nil
		}
		return true
	}
	value()
	return repeated
}

// FuzzScenarioFile extends the PR 3 codec fuzz family to the JSONL
// loader: arbitrary bytes must never panic, and every successfully loaded
// file must round-trip each expanded spec through the canonical codec to
// the same content hash. Every line without repeated keys must also give
// the same points (and spec hashes), or the same error text, from the
// one-pass path as from the generic path, which stays the reference; the
// generic path must give the same error text on a repeated call; and
// where the canonical decode answers, it must give the same document,
// points and hashes as the strict decode.
func FuzzScenarioFile(f *testing.F) {
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": 30, "numData": 5}}`))
	f.Add([]byte(`{"scenario": {"protocol": {"sweep": ["charisma", "rama"]}, "numVoice": {"range": {"from": 20, "to": 60, "step": 20}}}, "replications": 2}`))
	f.Add([]byte(`{"multicell": {"cells": 2, "protocol": "drma", "numVoice": 8, "decisionPeriodFrames": 40}}`))
	f.Add([]byte("# comment\n\n{\"kind\": \"scenario\", \"scenario\": {\"protocol\": \"rmav\", \"numVoice\": 1, \"speedsKmh\": [50]}}"))
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": {"sweep": [1, 2]}, "channel": {"speedKmh": {"range": {"from": 10, "to": 30, "step": 10}}}}}`))
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": 3}}}`))
	f.Add([]byte(`{"Scenario": {"Protocol": "rama", "NumData": 2, "Channel": {"SpeedKmh": 1e400}}}`))
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": 4, "numVoice": 6}}`))
	f.Add([]byte(` null `))
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": {"range": {"from": 1, "From": 5, "to": 10, "step": 1}}}}`))
	f.Add([]byte(`{"scenario": {"protocol": "charisma", "numVoice": {"sweep": []}, "numData": {"range": {"from": 5, "to": 1, "step": 1}}}}`))
	var written bytes.Buffer
	sc := tinyScenario(core.ProtoRAMA, 3, 2)
	sc.SpeedsKmh = []float64{10, 20, 30, 40, 50}
	if err := WriteScenarioFile(&written, []Point{{Spec: ScenarioSpec(sc), Replications: 2}, {Spec: MulticellSpec(tinyMulticell())}}); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '#' || len(line) > maxScenarioLine {
				continue
			}
			if repeatedKeys(line) {
				continue
			}
			checkCanonicalLine(t, line)
			got, gerr := ExpandScenarioLine(line)
			want, werr := expandGeneric(line)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("line %q: one-pass error %v, generic error %v", line, gerr, werr)
			}
			if _, again := expandGeneric(line); (again == nil) != (werr == nil) || werr != nil && again.Error() != werr.Error() {
				t.Fatalf("line %q: generic error %v, then %v", line, werr, again)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("line %q: one-pass points differ from the generic path's", line)
			}
			for i := range got {
				hg, _ := got[i].Spec.Hash()
				hw, _ := want[i].Spec.Hash()
				if hg != hw {
					t.Fatalf("line %q point %d: hash %s, generic %s", line, i, hg, hw)
				}
			}
		}

		pts, err := LoadScenarioFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(pts) == 0 {
			t.Fatal("nil error with zero points")
		}
		for i, p := range pts {
			if p.Replications < 1 {
				t.Fatalf("point %d: replications %d", i, p.Replications)
			}
			enc, err := p.Spec.Encode()
			if err != nil {
				t.Fatalf("point %d: loaded spec does not encode: %v", i, err)
			}
			rt, err := DecodeSpec(enc)
			if err != nil {
				t.Fatalf("point %d: canonical encoding does not decode: %v", i, err)
			}
			h1, err := p.Spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			h2, err := rt.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 {
				t.Fatalf("point %d: hash drifted through codec round trip: %s != %s", i, h1, h2)
			}
		}
	})
}

// checkCanonicalLine: where decodeCanonical answers for a scenario line,
// the strict decode gives the same document, and so the same points (or
// error) and spec hashes.
func checkCanonicalLine(t *testing.T, line []byte) {
	t.Helper()
	if !checkCanonical[scenarioDoc](t, line) {
		return
	}
	var cd, sd scenarioDoc
	decodeCanonical(line, &cd)
	if err := strictDecode(line, &sd); err != nil {
		t.Fatal(err)
	}
	cp, cerr := cd.point()
	sp, serr := sd.point()
	if (cerr == nil) != (serr == nil) || cerr != nil && cerr.Error() != serr.Error() || !reflect.DeepEqual(cp, sp) {
		t.Fatalf("line %q: canonical point %+v (%v), strict %+v (%v)", line, cp, cerr, sp, serr)
	}
	if cerr == nil {
		hc, _ := cp.Spec.Hash()
		hs, _ := sp.Spec.Hash()
		if hc != hs {
			t.Fatalf("line %q: canonical hash %s, strict %s", line, hc, hs)
		}
	}
}
