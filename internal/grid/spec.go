package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/run"
)

// Kinds of serializable jobs.
const (
	// KindScenario is a single-cell core.Scenario run.
	KindScenario = "scenario"
	// KindMulticell is a multi-cell deployment run.
	KindMulticell = "multicell"
)

// JobSpec declares one simulation as data: exactly one of the payload
// pointers is set, matching Kind. Both payloads are plain parameter structs
// (ints, floats, strings, float slices), so a spec round-trips losslessly
// through its codec and can cross a process boundary.
//
// The canonical encoding is json.Marshal's bytes of the spec: the fixed
// struct field order and Go's shortest-round-trip float formatting.
// Encode and Hash write those bytes with appendJSON (see canon.go), so
// every hash, and every cache entry keyed by one, is what json.Marshal's
// encoding gives; Hash is SHA-256 over it, encoded into a stack buffer.
// Specs are hashed literally: two specs that only differ in defaulted
// zero fields run identically but hash differently, which costs a cache
// miss, never a wrong hit.
type JobSpec struct {
	Kind      string
	Scenario  *core.Scenario    `json:",omitempty"`
	Multicell *multicell.Params `json:",omitempty"`
}

// ScenarioSpec wraps a single-cell scenario into a spec.
func ScenarioSpec(sc core.Scenario) JobSpec {
	return JobSpec{Kind: KindScenario, Scenario: &sc}
}

// MulticellSpec wraps a multi-cell deployment into a spec: the deployment
// travels as parameters, and RunRep normalizes its result the same way on
// whichever worker runs it.
func MulticellSpec(p multicell.Params) JobSpec {
	return JobSpec{Kind: KindMulticell, Multicell: &p}
}

// Validate checks the spec's shape: a known kind carrying exactly its own
// payload. Deep parameter validation happens when the payload runs (the
// scenario and deployment types own their invariants).
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindScenario:
		if s.Scenario == nil {
			return errors.New("grid: scenario spec without scenario payload")
		}
		if s.Multicell != nil {
			return errors.New("grid: scenario spec with multicell payload")
		}
	case KindMulticell:
		if s.Multicell == nil {
			return errors.New("grid: multicell spec without deployment payload")
		}
		if s.Scenario != nil {
			return errors.New("grid: multicell spec with scenario payload")
		}
	default:
		return fmt.Errorf("grid: unknown job kind %q", s.Kind)
	}
	return nil
}

// BaseSeed returns the seed replications derive from via run.RepSeed.
func (s JobSpec) BaseSeed() int64 {
	switch {
	case s.Scenario != nil:
		return s.Scenario.Seed
	case s.Multicell != nil:
		return s.Multicell.Seed
	}
	return 0
}

// Encode returns the canonical JSON encoding of the spec.
func (s JobSpec) Encode() ([]byte, error) {
	return s.appendTo(nil)
}

// appendTo appends the canonical encoding of the spec to dst.
func (s JobSpec) appendTo(dst []byte) ([]byte, error) {
	b, err := appendJSON(dst, s)
	if err != nil {
		return nil, fmt.Errorf("grid: encode spec: %w", err)
	}
	return b, nil
}

// DecodeSpec parses a canonical encoding. It is strict about syntax —
// unknown fields and trailing data are rejected — but does not apply
// semantic validation; call Validate before running a decoded spec.
func DecodeSpec(b []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("grid: decode spec: %w", err)
	}
	if !atEOF(dec) {
		return JobSpec{}, errors.New("grid: trailing data after spec")
	}
	return s, nil
}

// atEOF reports whether nothing but whitespace follows the decoder's last
// value. (Decoder.More is no substitute: it reports false at a stray
// closing bracket.)
func atEOF(dec *json.Decoder) bool {
	_, err := dec.Token()
	return err == io.EOF
}

// Hash returns the spec's stable content hash: SHA-256 over the canonical
// encoding, hex-encoded.
func (s JobSpec) Hash() (string, error) {
	var buf [2048]byte // a corpus spec encodes in 1.0–2.0 KB
	b, err := s.appendTo(buf[:0])
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RepKey is the content address of one replication's result:
// hash(JobSpec, RepSeed). Growing a sweep's replication count only ever
// adds new keys, and every execution path — loopback, remote worker, warm
// cache — derives the same key for the same work.
func RepKey(specHash string, repSeed int64) string {
	h := sha256.New()
	io.WriteString(h, specHash)
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(repSeed))
	h.Write(seed[:])
	return hex.EncodeToString(h.Sum(nil))
}

// RunRep is RunRepContext under a context that is never cancelled.
func (s JobSpec) RunRep(rep int) (mac.Result, error) {
	return s.RunRepContext(context.Background(), rep)
}

// RunRepContext executes replication rep of the spec on the frame loop,
// under the seed run.RepSeed(BaseSeed, rep), so a sweep's results are
// byte-identical to a serial loop of the same runs. A multicell result is
// the deployment-wide aggregate with Frames normalized to per-cell-frame
// equivalents (a deployment sums frames across cells; a sweep point
// counts the measurement window once), so the generic replication fold
// recomputes DataThroughputPerFrame in the per-cell-frame normalization
// multicell.Run and RunReplicated use. The handoff count is a
// deployment-level statistic and is not carried in a mac.Result. A
// cancelled ctx stops the replication with an error wrapping ctx.Err().
func (s JobSpec) RunRepContext(ctx context.Context, rep int) (mac.Result, error) {
	if err := s.Validate(); err != nil {
		return mac.Result{}, err
	}
	seed := run.RepSeed(s.BaseSeed(), rep)
	switch s.Kind {
	case KindScenario:
		sc := *s.Scenario
		sc.Seed = seed
		res, err := sc.Run(ctx)
		if err != nil {
			return mac.Result{}, fmt.Errorf("grid: scenario (%s) rep %d: %w", sc.Protocol, rep, err)
		}
		return res, nil
	default: // KindMulticell, by Validate
		p := *s.Multicell
		p.Seed = seed
		r, err := multicell.Run(ctx, p)
		if err != nil {
			return mac.Result{}, fmt.Errorf("grid: multicell (%s) rep %d: %w", p.Protocol, rep, err)
		}
		if cells := len(r.PerCell); cells > 0 {
			r.Result.Frames /= float64(cells)
		}
		return r.Result, nil
	}
}
