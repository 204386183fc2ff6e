package grid

// The canonical codec. Most JSON the grid reads back is JSON it wrote
// itself: disk-cache entry bodies (DiskCache.Put), scenario lines
// (WriteScenarioFile, charisma-scen gen), spec encodings (JobSpec.Encode,
// Hash) and the HTTP task, result and heartbeat bodies. That layout is
// json.Marshal's and it is narrow: object fields in declaration order
// under fixed key bytes, an omitempty field either written or absent, no
// whitespace, and numbers in strconv's shortest form. appendCanonical
// writes it into the caller's buffer and decodeCanonical reads it without
// encoding/json's scanner, both from one cached plan per type.
//
// appendCanonical writes exactly json.Marshal's bytes or nothing: it
// refuses a non-finite float (json.Marshal's "unsupported value" error is
// the caller's to return, via appendJSON) and a string holding a byte
// json.Marshal escapes or may rewrite (a control byte, '"', '\', '<',
// '>', '&', or any byte ≥ 0x80), which appendJSON hands to json.Marshal
// whole.
//
// decodeCanonical answers only where encoding/json's strict decode
// (strictDecode: unknown fields rejected, nothing after the value) would
// accept the same bytes and produce a reflect.DeepEqual value, and
// returns false otherwise: whitespace, reordered, repeated, case-folded or
// unknown keys, a missing field that is not omitempty, null where
// json.Marshal writes a value. It never decides a document is invalid;
// the caller decides what false means. Numbers follow the JSON grammar
// first, then parse with strconv exactly as encoding/json does, so a float
// round-trips bit for bit and a token encoding/json refuses (1e400, 1.0
// into an int, -1 into a uint) is refused here too. A string token holding
// an escape or a byte ≥ 0x80 is handed to encoding/json whole, so
// unescaping and UTF-8 repair are its own.
//
// The plan is derived once per type by reflection. A type the plan cannot
// mirror exactly (a map, an interface, an array, []byte, an embedded
// struct, a custom JSON or text codec, a json tag other than ",omitempty")
// has none: appendCanonical and decodeCanonical refuse it, and
// TestCanonicalTypesSupported fails if a type the grid writes or reads
// back reaches one, so neither direction can silently fall back.

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// appendJSON appends json.Marshal's encoding of v to dst, through
// appendCanonical where it answers and json.Marshal otherwise, so a value
// json.Marshal refuses gets json.Marshal's own error. It is generic so
// that only the fallback boxes v on the heap.
func appendJSON[T any](dst []byte, v T) ([]byte, error) {
	if b, ok := appendCanonical(dst, v); ok {
		return b, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendCanonical appends json.Marshal's encoding of v to dst and reports
// whether it could (see the section comment above). On false dst is
// returned as it was passed.
func appendCanonical(dst []byte, v any) ([]byte, bool) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() { // a nil interface
		return dst, false
	}
	t := canonPlan(rv.Type())
	if t == nil {
		return dst, false
	}
	b, ok := t.encode(dst, rv)
	if !ok {
		return dst, false
	}
	return b, true
}

// decodeCanonical decodes b into *v, which must point to a zero value,
// and reports whether it could (see the section comment above). On false
// *v is reset to its zero value.
func decodeCanonical(b []byte, v any) bool {
	rv := reflect.ValueOf(v).Elem()
	if t := canonPlan(rv.Type()); t != nil {
		d := canonDecoder{b: b}
		if d.value(t, rv) && d.i == len(b) {
			return true
		}
	}
	rv.SetZero()
	return false
}

// canonType is the plan for one Go type.
type canonType struct {
	typ    reflect.Type
	elem   *canonType   // pointer target or slice element
	fields []canonField // exported struct fields, in declaration order
}

// canonField is one struct field and the key json.Marshal writes for it.
type canonField struct {
	index     int
	key       string // `"Name":`
	omitEmpty bool
	t         *canonType
}

// canonPlans caches plans by type; nil marks a type without one.
var canonPlans sync.Map // reflect.Type → *canonType

// canonPlan returns typ's plan, or nil when it has none.
func canonPlan(typ reflect.Type) *canonType {
	if t, ok := canonPlans.Load(typ); ok {
		return t.(*canonType)
	}
	t, _ := buildCanon(typ) // the error is for the guard test
	canonPlans.Store(typ, t)
	return t
}

var (
	selfCoded = []reflect.Type{
		reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
		reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
	}
	jsonNumber = reflect.TypeFor[json.Number]()
)

// buildCanon derives typ's plan, or says why it has none. The types it
// plans are not recursive.
func buildCanon(typ reflect.Type) (*canonType, error) {
	for _, i := range selfCoded {
		if typ.Implements(i) || reflect.PointerTo(typ).Implements(i) {
			return nil, fmt.Errorf("%v implements %v", typ, i)
		}
	}
	if typ == jsonNumber {
		return nil, fmt.Errorf("%v decodes as a number", typ)
	}
	t := &canonType{typ: typ}
	switch typ.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("%v encodes as base64", typ)
		}
		fallthrough
	case reflect.Pointer:
		elem, err := buildCanon(typ.Elem())
		if err != nil {
			return nil, err
		}
		t.elem = elem
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				return nil, fmt.Errorf("%v.%s: embedded field", typ, f.Name)
			}
			if !f.IsExported() {
				continue
			}
			tag, hasTag := f.Tag.Lookup("json")
			if hasTag && tag != ",omitempty" {
				return nil, fmt.Errorf("%v.%s: json tag %q", typ, f.Name, tag)
			}
			ft, err := buildCanon(f.Type)
			if err != nil {
				return nil, fmt.Errorf("%v.%s: %w", typ, f.Name, err)
			}
			key, _ := json.Marshal(f.Name) // a string always encodes
			t.fields = append(t.fields, canonField{index: i, key: string(key) + ":", omitEmpty: hasTag, t: ft})
		}
	default:
		return nil, fmt.Errorf("%v: %v values are not decoded", typ, typ.Kind())
	}
	return t, nil
}

// encode appends v's json.Marshal encoding, or reports false where
// json.Marshal would fail or escape a string.
func (t *canonType) encode(dst []byte, v reflect.Value) ([]byte, bool) {
	ok := true
	switch t.typ.Kind() {
	case reflect.Struct:
		dst = append(dst, '{')
		comma := false
		for _, f := range t.fields {
			fv := v.Field(f.index)
			if f.omitEmpty && isEmptyValue(fv) {
				continue
			}
			if comma {
				dst = append(dst, ',')
			}
			comma = true
			dst = append(dst, f.key...)
			if dst, ok = f.t.encode(dst, fv); !ok {
				return dst, false
			}
		}
		return append(dst, '}'), true
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, "null"...), true
		}
		return t.elem.encode(dst, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(dst, "null"...), true
		}
		dst = append(dst, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = t.elem.encode(dst, v.Index(i)); !ok {
				return dst, false
			}
		}
		return append(dst, ']'), true
	case reflect.String:
		s := v.String()
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return dst, false
			}
		}
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"'), true
	case reflect.Bool:
		return strconv.AppendBool(dst, v.Bool()), true
	case reflect.Float32, reflect.Float64:
		return appendFloat(dst, v.Float(), t.typ.Bits())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(dst, v.Int(), 10), true
	default: // the unsigned kinds; buildCanon admits no others
		return strconv.AppendUint(dst, v.Uint(), 10), true
	}
}

// isEmptyValue is encoding/json's omitempty test for the kinds a plan
// admits: false, 0 (either sign), "", a nil pointer, a nil or empty
// slice; a struct is never empty.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	default:
		return v.IsZero()
	}
}

// appendFloat formats f as encoding/json's floatEncoder does: like
// strconv's shortest 'f', but 'e' below 1e-6 and from 1e21 (compared at
// the value's own width), with a negative exponent's leading zero
// dropped. A NaN or an infinity is refused.
func appendFloat(dst []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, true
}

// canonDecoder is a cursor over one canonical-layout document.
type canonDecoder struct {
	b []byte
	i int
}

// skip consumes lit if the bytes at the cursor start with it.
func (d *canonDecoder) skip(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// value decodes one value of type t into v, which holds t's zero value.
func (d *canonDecoder) value(t *canonType, v reflect.Value) bool {
	switch t.typ.Kind() {
	case reflect.Struct:
		return d.object(t, v)
	case reflect.Pointer:
		if d.skip("null") {
			return true
		}
		p := reflect.New(t.typ.Elem())
		if !d.value(t.elem, p.Elem()) {
			return false
		}
		v.Set(p)
		return true
	case reflect.Slice:
		if d.skip("null") {
			return true
		}
		return d.array(t, v)
	case reflect.String:
		s, ok := d.str()
		v.SetString(s)
		return ok
	case reflect.Bool:
		if d.skip("true") {
			v.SetBool(true)
			return true
		}
		return d.skip("false")
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(string(d.number()), t.typ.Bits())
		if err != nil || v.OverflowFloat(f) {
			return false
		}
		v.SetFloat(f)
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(string(d.number()), 10, 64)
		if err != nil || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
		return true
	default: // the unsigned kinds; buildCanon admits no others
		n, err := strconv.ParseUint(string(d.number()), 10, 64)
		if err != nil || v.OverflowUint(n) {
			return false
		}
		v.SetUint(n)
		return true
	}
}

// object decodes a struct: every field in declaration order, an omitempty
// one possibly absent.
func (d *canonDecoder) object(t *canonType, v reflect.Value) bool {
	if !d.skip("{") {
		return false
	}
	comma := false // a field was read, so the next key follows a comma
	for _, f := range t.fields {
		at := d.i
		if comma && !d.skip(",") || !d.skip(f.key) {
			if !f.omitEmpty {
				return false
			}
			d.i = at
			continue
		}
		if !d.value(f.t, v.Field(f.index)) {
			return false
		}
		comma = true
	}
	return d.skip("}")
}

// array decodes a slice; `[]` gives an empty, non-nil slice, as in
// encoding/json.
func (d *canonDecoder) array(t *canonType, v reflect.Value) bool {
	if !d.skip("[") {
		return false
	}
	v.Set(reflect.MakeSlice(t.typ, 0, 0))
	if d.skip("]") {
		return true
	}
	for n := 0; ; n++ {
		v.Grow(1)
		v.SetLen(n + 1)
		if !d.value(t.elem, v.Index(n)) {
			return false
		}
		if d.skip("]") {
			return true
		}
		if !d.skip(",") {
			return false
		}
	}
}

// str decodes a string token. Plain ASCII is the bytes between the
// quotes; a token holding an escape or a byte ≥ 0x80 goes to
// encoding/json whole.
func (d *canonDecoder) str() (string, bool) {
	if !d.skip(`"`) {
		return "", false
	}
	start, plain := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return string(d.b[start : d.i-1]), true
			}
			var s string
			err := json.Unmarshal(d.b[start-1:d.i], &s)
			return s, err == nil
		case c == '\\':
			plain = false
			d.i++ // the escaped byte cannot end the token
		case c < 0x20:
			return "", false
		case c >= 0x80:
			plain = false
		}
	}
	return "", false
}

// number consumes a literal in the JSON number grammar and returns it, or
// returns nil, consuming nothing, when the bytes at the cursor are not one.
func (d *canonDecoder) number() []byte {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	tok := b[d.i:i]
	d.i = i
	return tok
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
