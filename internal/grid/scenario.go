package grid

// Scenario files make sweeps data. A file is JSONL: one JSON document per
// line, each shaped like a JobSpec plus an optional Replications count.
// Blank lines and lines starting with '#' are skipped. Field names match
// Go's case-insensitive JSON rules, so files may use lowerCamel keys.
//
// Anywhere a scalar is expected, a document may instead carry an *axis*:
//
//	{"sweep": [5, 30, 60]}
//	{"range": {"from": 20, "to": 140, "step": 20}}
//
// Loading expands each line into the cross product of its axes — axes are
// ordered by their JSON path (lexicographic), the last axis varying
// fastest — so a whole figure panel is one line. Every expanded document
// is strict-decoded (unknown fields rejected), shape-checked, and
// semantically validated as it will run (payload defaults applied first),
// producing []Point ready for RunPoints: scenario files ride the
// content-addressed cache and the distributed grid unchanged.
//
// A line without axes is decoded in one pass, straight into the schema.
// A line in json.Marshal's own layout of the schema — every line
// WriteScenarioFile and charisma-scen gen write — is read by
// decodeCanonical, which answers only where the strict decode would give
// the same document; any other line is strict-decoded by encoding/json.
// Both are sound because no payload type has a map or interface field, or
// a field whose name folds to "sweep" or "range": a line carrying an axis
// can never strict-decode, so only lines that fail the one-pass decode
// take the generic path (parse to a tree, collect axes, substitute,
// re-encode, strict-decode), which expands them or reports the error.
//
// Repeated keys within one object are best avoided. On an axis-free line
// encoding/json's rule applies: the last key in document order wins, and
// a repeated object merges into the earlier one (as DecodeSpec does). On
// a line with axes the tree round trip applies instead: a repeated key
// replaces the earlier value, and keys that differ only in case resolve
// in sorted key order.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"charisma/internal/core"
	"charisma/internal/multicell"
	"charisma/internal/run"
)

// Expansion guardrails: a scenario file is user (and fuzzer) input, so
// the cross product is bounded before any spec is built.
const (
	// MaxAxesPerLine bounds one document's grid dimensionality.
	MaxAxesPerLine = 16
	// MaxSpecsPerLine bounds one document's cross-product size.
	MaxSpecsPerLine = 4096
	// MaxSpecsPerFile bounds a whole file's expansion.
	MaxSpecsPerFile = 65536
	// maxScenarioLine bounds one JSONL line's byte length.
	maxScenarioLine = 1 << 20
	// loadBatchBytes and loadBatchLines bound how much of a file is held
	// for one parallel expansion round.
	loadBatchBytes = 4 << 20
	loadBatchLines = 128
)

// scenarioDoc is the per-line schema: a JobSpec plus the sweep-level
// replication count.
type scenarioDoc struct {
	Kind         string            `json:",omitempty"`
	Scenario     *core.Scenario    `json:",omitempty"`
	Multicell    *multicell.Params `json:",omitempty"`
	Replications int               `json:",omitempty"`
}

// LoadScenarioPath loads and expands the scenario file at path.
func LoadScenarioPath(path string) ([]Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("grid: scenario file: %w", err)
	}
	defer f.Close()
	return LoadScenarioFile(f)
}

// LoadScenarioFile parses a JSONL scenario stream and expands every line
// into its cross product of sweep points. Lines are read in batches and
// each batch is expanded in parallel; the points come back in line order,
// and an error names the lowest-numbered failing line, exactly as a
// line-by-line load would.
func LoadScenarioFile(r io.Reader) ([]Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxScenarioLine)
	var (
		pts   []Point
		buf   []byte // the batch's lines, back to back
		lines []lineSpan
	)
	flush := func() (err error) {
		pts, err = expandLines(pts, buf, lines)
		buf, lines = buf[:0], lines[:0]
		return err
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		lines = append(lines, lineSpan{no: lineNo, from: len(buf), to: len(buf) + len(line)})
		buf = append(buf, line...)
		if len(lines) == loadBatchLines || len(buf) >= loadBatchBytes {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("grid: scenario file line %d: longer than %d bytes: %w", lineNo+1, maxScenarioLine, err)
		}
		return nil, fmt.Errorf("grid: scenario file: %w", err)
	}
	if len(pts) == 0 {
		return nil, errors.New("grid: scenario file: no scenarios")
	}
	return pts, nil
}

// lineSpan locates one scenario line in a batch buffer.
type lineSpan struct{ no, from, to int }

// expandLines expands one batch of lines over run.Map and appends the
// points to pts in line order, enforcing MaxSpecsPerFile in line order.
// Workers stop taking lines once one fails or the running total passes
// the file cap; the fold expands such a skipped line itself if it gets
// that far, so the outcome never depends on scheduling.
func expandLines(pts []Point, buf []byte, lines []lineSpan) ([]Point, error) {
	type expansion struct {
		pts  []Point
		err  error
		done bool
	}
	var stop atomic.Bool
	var total atomic.Int64
	total.Store(int64(len(pts)))
	exs, _ := run.Map(context.TODO(), 0, len(lines), func(i int) (expansion, error) {
		if stop.Load() {
			return expansion{}, nil
		}
		ex, err := ExpandScenarioLine(buf[lines[i].from:lines[i].to])
		if err != nil || total.Add(int64(len(ex))) > MaxSpecsPerFile {
			stop.Store(true)
		}
		return expansion{ex, err, true}, nil
	})
	for i, ln := range lines {
		e := exs[i]
		if !e.done {
			e.pts, e.err = ExpandScenarioLine(buf[ln.from:ln.to])
		}
		if e.err != nil {
			return nil, fmt.Errorf("grid: scenario file line %d: %w", ln.no, e.err)
		}
		if len(pts)+len(e.pts) > MaxSpecsPerFile {
			return nil, fmt.Errorf("grid: scenario file line %d: expansion exceeds %d specs", ln.no, MaxSpecsPerFile)
		}
		pts = append(pts, e.pts...)
	}
	return pts, nil
}

// ExpandScenarioLine expands one scenario document into the cross product
// of its axes. A document without axes yields exactly one point, decoded
// in one pass (canonically, or else strictly); any line that does not
// strict-decode as it stands takes the generic path.
func ExpandScenarioLine(line []byte) ([]Point, error) {
	var d scenarioDoc
	ok := decodeCanonical(line, &d)
	if !ok {
		// A top-level null strict-decodes as an empty document; leave it
		// to the generic path, which rejects every non-object.
		doc := bytes.TrimLeft(line, " \t\r\n")
		ok = len(doc) > 0 && doc[0] == '{' && strictDecode(line, &d) == nil
	}
	if !ok {
		return expandGeneric(line)
	}
	pt, err := d.point()
	if err != nil {
		return nil, err
	}
	return []Point{pt}, nil
}

// expandGeneric is the axis-aware path: parse to a tree, collect the
// axes, and strict-decode every substituted combination.
func expandGeneric(line []byte) ([]Point, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber() // numeric literals survive substitution verbatim
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if !atEOF(dec) {
		return nil, errTrailingDoc
	}
	root, ok := doc.(map[string]any)
	if !ok {
		return nil, errors.New("document is not a JSON object")
	}

	axes, err := collectAxes(root)
	if err != nil {
		return nil, err
	}
	total := 1
	for _, ax := range axes {
		if total > MaxSpecsPerLine/len(ax.values) {
			return nil, fmt.Errorf("cross product exceeds %d specs", MaxSpecsPerLine)
		}
		total *= len(ax.values)
	}

	pts := make([]Point, 0, total)
	idx := make([]int, len(axes))
	for {
		for i, ax := range axes {
			ax.set(ax.values[idx[i]])
		}
		pt, err := decodeDoc(root)
		if err != nil {
			if len(axes) > 0 {
				return nil, fmt.Errorf("%s: %w", assignment(axes, idx), err)
			}
			return nil, err
		}
		pts = append(pts, pt)
		// Odometer: last axis fastest.
		k := len(axes) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(axes[k].values) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return pts, nil
}

// assignment renders one axis combination for error messages.
func assignment(axes []axis, idx []int) string {
	var b strings.Builder
	for i, ax := range axes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", ax.path, ax.values[idx[i]])
	}
	return b.String()
}

// axis is one expansion dimension: the values it takes and a setter that
// substitutes a value into the parsed document.
type axis struct {
	path   string
	values []any
	set    func(v any)
}

// collectAxes walks the document, object keys in sorted order, and
// returns its axes sorted by path, so expansion order and the error
// reported for a bad axis are independent of map iteration order.
func collectAxes(root map[string]any) ([]axis, error) {
	var axes []axis
	var walk func(path string, node any, set func(any)) error
	walk = func(path string, node any, set func(any)) error {
		switch n := node.(type) {
		case map[string]any:
			vals, isAxis, err := axisValues(path, n)
			if err != nil {
				return err
			}
			if isAxis {
				if set == nil {
					return fmt.Errorf("axis %s: document root cannot be an axis", path)
				}
				axes = append(axes, axis{path: path, values: vals, set: set})
				return nil
			}
			for _, k := range slices.Sorted(maps.Keys(n)) {
				sub := k
				if path != "" {
					sub = path + "." + k
				}
				if err := walk(sub, n[k], func(x any) { n[k] = x }); err != nil {
					return err
				}
			}
		case []any:
			for i, v := range n {
				i := i
				if err := walk(fmt.Sprintf("%s[%d]", path, i), v, func(x any) { n[i] = x }); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk("", root, nil); err != nil {
		return nil, err
	}
	if len(axes) > MaxAxesPerLine {
		return nil, fmt.Errorf("%d axes exceed the %d-axis limit", len(axes), MaxAxesPerLine)
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].path < axes[j].path })
	return axes, nil
}

// axisValues recognizes an axis object: a single-key map whose key is
// "sweep" (explicit value list) or "range" (arithmetic progression).
func axisValues(path string, m map[string]any) ([]any, bool, error) {
	if len(m) != 1 {
		return nil, false, nil
	}
	var key string
	var val any
	for k, v := range m {
		key, val = k, v
	}
	switch strings.ToLower(key) {
	case "sweep":
		arr, ok := val.([]any)
		if !ok || len(arr) == 0 {
			return nil, false, fmt.Errorf("axis %s: sweep wants a non-empty array", path)
		}
		return arr, true, nil
	case "range":
		spec, ok := val.(map[string]any)
		if !ok {
			return nil, false, fmt.Errorf("axis %s: range wants an object with from/to/step", path)
		}
		vals, err := rangeValues(spec)
		if err != nil {
			return nil, false, fmt.Errorf("axis %s: %w", path, err)
		}
		return vals, true, nil
	}
	return nil, false, nil
}

// rangeValues expands {"from": a, "to": b, "step": s} into the inclusive
// progression a, a+s, ..., ≤ b. Field names fold case, so two keys
// folding to the same field are rejected.
func rangeValues(spec map[string]any) ([]any, error) {
	var xs [3]float64  // from, to, step
	var keys [3]string // the key that set each
	for _, k := range slices.Sorted(maps.Keys(spec)) {
		num, ok := spec[k].(json.Number)
		if !ok {
			return nil, fmt.Errorf("range field %s: want a number", k)
		}
		x, err := num.Float64()
		if err != nil {
			return nil, fmt.Errorf("range field %s: %w", k, err)
		}
		i := slices.Index([]string{"from", "to", "step"}, strings.ToLower(k))
		if i < 0 {
			return nil, fmt.Errorf("unknown range field %q", k)
		}
		if keys[i] != "" {
			return nil, fmt.Errorf("range fields %q and %q fold to the same name", keys[i], k)
		}
		xs[i], keys[i] = x, k
	}
	if keys[0] == "" || keys[1] == "" || keys[2] == "" {
		return nil, errors.New("range wants from, to and step")
	}
	from, to, step := xs[0], xs[1], xs[2]
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) ||
		math.IsNaN(from) || math.IsInf(from, 0) || math.IsNaN(to) || math.IsInf(to, 0) {
		return nil, fmt.Errorf("bad range [%v, %v] step %v", from, to, step)
	}
	if to < from {
		return nil, fmt.Errorf("empty range [%v, %v]", from, to)
	}
	q := (to - from) / step
	if q > MaxSpecsPerLine { // before int conversion: q may exceed int64
		return nil, fmt.Errorf("range yields over %d values (limit %d)", MaxSpecsPerLine, MaxSpecsPerLine)
	}
	// A small tolerance keeps binary-float endpoints (0.3 after three
	// 0.1 steps) in the progression without admitting a real overshoot.
	n := int(math.Floor(q + 1e-9))
	vals := make([]any, 0, n+1)
	for i := 0; i <= n; i++ {
		v := from + float64(i)*step
		// Render as a JSON literal so integral values stay integral.
		vals = append(vals, json.Number(strconv.FormatFloat(v, 'g', -1, 64)))
	}
	return vals, nil
}

// errTrailingDoc rejects anything but whitespace after a line's document.
var errTrailingDoc = errors.New("trailing data after document")

// strictDecode decodes b, which must hold exactly one JSON document, into
// v with unknown fields rejected.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if !atEOF(dec) {
		return errTrailingDoc
	}
	return nil
}

// decodeDoc strict-decodes one fully-substituted document into a sweep
// point.
func decodeDoc(root map[string]any) (Point, error) {
	b, err := json.Marshal(root)
	if err != nil {
		return Point{}, err
	}
	var d scenarioDoc
	if err := strictDecode(b, &d); err != nil {
		return Point{}, err
	}
	return d.point()
}

// point turns a decoded document into a sweep point, inferring Kind from
// the payload when absent, and validates the spec both structurally and
// as it will run (defaults applied first — exactly RunRep's execution
// path).
func (d scenarioDoc) point() (Point, error) {
	if d.Replications < 0 {
		return Point{}, fmt.Errorf("negative Replications %d", d.Replications)
	}
	spec := JobSpec{Kind: d.Kind, Scenario: d.Scenario, Multicell: d.Multicell}
	if spec.Kind == "" {
		switch {
		case d.Scenario != nil && d.Multicell == nil:
			spec.Kind = KindScenario
		case d.Multicell != nil && d.Scenario == nil:
			spec.Kind = KindMulticell
		default:
			return Point{}, errors.New("cannot infer Kind: document needs exactly one of Scenario or Multicell")
		}
	}
	if err := spec.Validate(); err != nil {
		return Point{}, err
	}
	switch spec.Kind {
	case KindScenario:
		if err := spec.Scenario.WithDefaults().Validate(); err != nil {
			return Point{}, err
		}
	case KindMulticell:
		if err := spec.Multicell.WithDefaults().Validate(); err != nil {
			return Point{}, err
		}
	}
	reps := d.Replications
	if reps < 1 {
		reps = 1
	}
	return Point{Spec: spec, Replications: reps}, nil
}

// WriteScenarioFile renders points as a JSONL scenario file, one document
// per point, loadable by LoadScenarioFile. Each line is json.Marshal's
// bytes of the document (written by appendJSON), so the loader reads it
// canonically, and a write→load round trip preserves every spec's content
// hash (the payload values travel verbatim).
func WriteScenarioFile(w io.Writer, pts []Point) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, p := range pts {
		if err := p.Spec.Validate(); err != nil {
			return fmt.Errorf("grid: scenario file point %d: %w", i, err)
		}
		d := scenarioDoc{Kind: p.Spec.Kind, Scenario: p.Spec.Scenario, Multicell: p.Spec.Multicell}
		if p.Replications > 1 {
			d.Replications = p.Replications
		}
		var err error
		if line, err = appendJSON(line[:0], d); err != nil {
			return fmt.Errorf("grid: scenario file point %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
