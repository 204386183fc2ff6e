// Package chaos is the deterministic fault-injection harness for the
// sweep grid: a seeded Plan decides — reproducibly — which wire
// requests are dropped, delayed, duplicated, truncated, or answered
// with synthetic 5xx, which results a lying worker corrupts before
// posting, and which on-disk cache entries are bit-flipped, truncated,
// or made unreadable.
//
// Every fault class draws from its own rng substream derived from the
// plan seed (rng.Derive(seed, "chaos", class)), so the k-th coin flip
// of one class is fixed by the seed alone: raising the drop rate never
// reshuffles which requests get duplicated, and a failing chaos run
// replays exactly from its seed. (Which *goroutine's* request consumes
// the k-th flip still depends on scheduling — the schedule of faults is
// deterministic, their assignment under concurrency is not.)
//
// The package sits strictly above internal/grid: grid exposes neutral
// hooks (Worker.Client, Worker.CorruptResult) and knows nothing about
// chaos; the cache injector walks the -cache-dir layout on its own.
// Production binaries arm it only behind explicit -chaos-seed /
// -chaos-rates flags.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"charisma/internal/mac"
	"charisma/internal/rng"
)

// Rates holds the per-fault-class injection probabilities (each in
// [0, 1], applied independently per opportunity). The zero value
// injects nothing.
type Rates struct {
	// Wire faults, applied per outgoing HTTP request.
	Drop   float64 // request vanishes: transport error, nothing forwarded
	Delay  float64 // request held for a random slice of DelayMax first
	Dup    float64 // request sent twice; the first response is discarded
	Trunc  float64 // response body cut to half its length
	Err500 float64 // synthetic 500, request never forwarded
	Err503 float64 // synthetic 503, request never forwarded

	// Lie corrupts a computed result just before it is posted — the
	// byzantine worker. The corruption is plausible (inflated
	// throughput, hidden loss), not garbage: exactly what the
	// coordinator's audit must catch by re-execution.
	Lie float64

	// Cache faults, applied per entry by InjectCacheFaults.
	CacheFlip  float64 // one byte XORed — silent corruption for the CRC to catch
	CacheTrunc float64 // entry truncated to half its length
	CacheDeny  float64 // entry chmod 000 (no-op for root/CAP_DAC_OVERRIDE readers)

	// DelayMax bounds an injected delay (default 25ms when Delay > 0).
	DelayMax time.Duration
}

// rateKeys maps -chaos-rates keys to Rates fields, in documentation
// order.
var rateKeys = []struct {
	key string
	set func(*Rates, float64)
}{
	{"drop", func(r *Rates, v float64) { r.Drop = v }},
	{"delay", func(r *Rates, v float64) { r.Delay = v }},
	{"dup", func(r *Rates, v float64) { r.Dup = v }},
	{"trunc", func(r *Rates, v float64) { r.Trunc = v }},
	{"err500", func(r *Rates, v float64) { r.Err500 = v }},
	{"err503", func(r *Rates, v float64) { r.Err503 = v }},
	{"lie", func(r *Rates, v float64) { r.Lie = v }},
	{"cacheflip", func(r *Rates, v float64) { r.CacheFlip = v }},
	{"cachetrunc", func(r *Rates, v float64) { r.CacheTrunc = v }},
	{"cachedeny", func(r *Rates, v float64) { r.CacheDeny = v }},
	{"delayms", func(r *Rates, v float64) { r.DelayMax = time.Duration(v * float64(time.Millisecond)) }},
}

// ParseRates parses the -chaos-rates flag syntax: comma-separated
// key=value pairs, e.g. "drop=0.05,dup=0.02,err500=0.1,lie=1".
// Probability keys take values in [0, 1]; delayms takes milliseconds.
// Unknown keys are errors (listing the valid ones) so a typo cannot
// silently disarm a fault class.
func ParseRates(s string) (Rates, error) {
	var r Rates
	s = strings.TrimSpace(s)
	if s == "" {
		return r, nil
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, vs, ok := strings.Cut(pair, "=")
		if !ok {
			return r, fmt.Errorf("chaos: rate %q is not key=value", pair)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err != nil {
			return r, fmt.Errorf("chaos: rate %q: %w", pair, err)
		}
		found := false
		for _, rk := range rateKeys {
			if rk.key != k {
				continue
			}
			if k != "delayms" && (v < 0 || v > 1) {
				return r, fmt.Errorf("chaos: rate %s=%v outside [0, 1]", k, v)
			}
			if k == "delayms" && v < 0 {
				return r, fmt.Errorf("chaos: delayms=%v is negative", v)
			}
			rk.set(&r, v)
			found = true
			break
		}
		if !found {
			keys := make([]string, len(rateKeys))
			for i, rk := range rateKeys {
				keys[i] = rk.key
			}
			return r, fmt.Errorf("chaos: unknown rate %q (valid: %s)", k, strings.Join(keys, ", "))
		}
	}
	return r, nil
}

// Active reports whether any fault class can fire.
func (r Rates) Active() bool {
	return r.Drop > 0 || r.Delay > 0 || r.Dup > 0 || r.Trunc > 0 ||
		r.Err500 > 0 || r.Err503 > 0 || r.Lie > 0 ||
		r.CacheFlip > 0 || r.CacheTrunc > 0 || r.CacheDeny > 0
}

// Counts is a snapshot of how many faults each class has injected.
type Counts struct {
	Drops, Delays, Dups, Truncs, Err500s, Err503s uint64
	Lies                                          uint64
	CacheFaults                                   uint64
}

// String renders the non-zero counts for an exit log line.
func (c Counts) String() string {
	parts := []string{}
	add := func(n uint64, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(c.Drops, "dropped")
	add(c.Delays, "delayed")
	add(c.Dups, "duplicated")
	add(c.Truncs, "truncated")
	add(c.Err500s, "err500")
	add(c.Err503s, "err503")
	add(c.Lies, "lied")
	add(c.CacheFaults, "cache faults")
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, ", ")
}

// Plan is one armed fault schedule: a seed, the per-class rates, and
// one rng substream per class. All methods are safe for concurrent use;
// coin flips are serialized so each class consumes its stream in a
// fixed per-opportunity order.
type Plan struct {
	rates Rates

	mu     sync.Mutex
	counts Counts
	// One substream per class: each request/entry costs every wire class
	// exactly one draw, so a class's schedule depends only on the seed,
	// never on the other classes' rates.
	drop, delay, dup, trunc, err500, err503 *rng.Stream
	lie, cache                              *rng.Stream
}

// NewPlan arms a fault schedule. The same (seed, rates) always yields
// the same per-class fault schedule.
func NewPlan(seed int64, rates Rates) *Plan {
	if rates.DelayMax <= 0 {
		rates.DelayMax = 25 * time.Millisecond
	}
	sub := func(class string) *rng.Stream { return rng.Derive(seed, "chaos", class) }
	return &Plan{
		rates:  rates,
		drop:   sub("drop"),
		delay:  sub("delay"),
		dup:    sub("dup"),
		trunc:  sub("trunc"),
		err500: sub("err500"),
		err503: sub("err503"),
		lie:    sub("lie"),
		cache:  sub("cache"),
	}
}

// Counts returns a snapshot of the faults injected so far.
func (p *Plan) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// wireFaults is one request's verdict, drawn atomically.
type wireFaults struct {
	drop, dup, trunc, err500, err503 bool
	delay                            time.Duration
}

func (p *Plan) drawWire() wireFaults {
	p.mu.Lock()
	defer p.mu.Unlock()
	var f wireFaults
	f.drop = p.drop.Bernoulli(p.rates.Drop)
	if p.delay.Bernoulli(p.rates.Delay) {
		f.delay = time.Duration(p.delay.Float64() * float64(p.rates.DelayMax))
	}
	f.dup = p.dup.Bernoulli(p.rates.Dup)
	f.trunc = p.trunc.Bernoulli(p.rates.Trunc)
	f.err500 = p.err500.Bernoulli(p.rates.Err500)
	f.err503 = p.err503.Bernoulli(p.rates.Err503)
	return f
}

// Transport wraps an http.RoundTripper with the plan's wire faults.
// base nil means http.DefaultTransport. Hand the result to an
// http.Client (grid.Worker.Client) and every request runs the gauntlet:
// drop → synthetic 5xx → delay → duplicate → forward → truncate.
//
// The faults compose with the grid's recovery story: a dropped or 5xx'd
// claim backs off and retries, a dropped result post retries then
// abandons to lease re-queueing, a duplicated claim strands a task
// whose lease expires, and a truncated task payload fails its JSON
// decode and is re-claimed.
func (p *Plan) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{p: p, base: base}
}

type transport struct {
	p    *Plan
	base http.RoundTripper
}

// faultErr is the transport error injected for dropped requests,
// distinguishable in logs from real network failures.
type faultErr struct{ op string }

func (e faultErr) Error() string { return "chaos: injected fault: " + e.op }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.p.drawWire()
	bump := func(c *uint64) {
		t.p.mu.Lock()
		*c++
		t.p.mu.Unlock()
	}
	switch {
	case f.drop:
		bump(&t.p.counts.Drops)
		return nil, faultErr{"request dropped"}
	case f.err500:
		bump(&t.p.counts.Err500s)
		return synthResponse(req, http.StatusInternalServerError), nil
	case f.err503:
		bump(&t.p.counts.Err503s)
		return synthResponse(req, http.StatusServiceUnavailable), nil
	}
	if f.delay > 0 {
		bump(&t.p.counts.Delays)
		timer := time.NewTimer(f.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if f.dup {
		if clone, ok := cloneRequest(req); ok {
			bump(&t.p.counts.Dups)
			// The duplicate goes out first and its response is discarded —
			// from the server's view, the same request arrived twice.
			if resp, err := t.base.RoundTrip(clone); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if f.trunc {
		bump(&t.p.counts.Truncs)
		if terr := truncateBody(resp); terr != nil {
			return nil, terr
		}
	}
	return resp, nil
}

// cloneRequest duplicates a request for replay. Bodyless requests clone
// directly; bodied ones need GetBody (set by http.NewRequest for the
// buffer types the grid client uses). ok is false when the body cannot
// be replayed.
func cloneRequest(req *http.Request) (*http.Request, bool) {
	clone := req.Clone(req.Context())
	if req.Body == nil {
		return clone, true
	}
	if req.GetBody == nil {
		return nil, false
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, false
	}
	clone.Body = body
	return clone, true
}

func synthResponse(req *http.Request, code int) *http.Response {
	body := "chaos: injected " + strconv.Itoa(code)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody swaps the response body for its first half, simulating a
// connection cut mid-transfer. JSON consumers fail their decode and
// treat the request as failed — which is the point.
func truncateBody(resp *http.Response) error {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	half := b[:len(b)/2]
	resp.Body = io.NopCloser(bytes.NewReader(half))
	resp.ContentLength = int64(len(half))
	resp.Header.Set("Content-Length", strconv.Itoa(len(half)))
	return nil
}

// CorruptResult is the lying-worker hook, with the exact signature of
// grid.Worker.CorruptResult. At the Lie rate it perturbs the result the
// way a cheating node would — better throughput, less loss — leaving it
// entirely plausible. Only byte-comparison against an honest
// re-execution (the coordinator's audit) can catch it.
func (p *Plan) CorruptResult(point, rep int, r *mac.Result) {
	p.mu.Lock()
	hit := p.lie.Bernoulli(p.rates.Lie)
	if hit {
		p.counts.Lies++
	}
	p.mu.Unlock()
	if !hit {
		return
	}
	r.DataThroughputPerFrame *= 1.25
	r.DataDelivered += 1 + r.DataDelivered/8
	r.VoiceLossRate *= 0.5
	r.VoiceDropped /= 2
	r.MeanDataDelaySec *= 0.75
}

// CacheFaults describes what InjectCacheFaults did to a cache dir.
type CacheFaults struct {
	Entries int // entries examined
	Flipped int // one byte XORed (CRC-detectable silent corruption)
	Trunced int // truncated to half length
	Denied  int // chmod 000
}

// InjectCacheFaults walks a -cache-dir layout (dir/<aa>/<key>.json) and
// perturbs entries per the plan's cache rates. Entries are visited in
// lexical path order, so the fault schedule is a pure function of
// (seed, rates, cache contents). Returns what was done; the grid's disk
// cache must detect every perturbed entry (CRC mismatch or read error),
// quarantine it, and recompute — never serve it.
func (p *Plan) InjectCacheFaults(dir string) (CacheFaults, error) {
	var cf CacheFaults
	if p.rates.CacheFlip == 0 && p.rates.CacheTrunc == 0 && p.rates.CacheDeny == 0 {
		return cf, nil
	}
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return cf, err
	}
	sort.Strings(paths)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, path := range paths {
		cf.Entries++
		switch {
		case p.cache.Bernoulli(p.rates.CacheFlip):
			b, err := os.ReadFile(path)
			if err != nil || len(b) == 0 {
				continue
			}
			// Flip one bit of one byte: the entry may still parse as valid
			// JSON — only the CRC envelope can tell.
			b[p.cache.IntN(len(b))] ^= 0x01
			if os.WriteFile(path, b, 0o644) == nil {
				cf.Flipped++
				p.counts.CacheFaults++
			}
		case p.cache.Bernoulli(p.rates.CacheTrunc):
			info, err := os.Stat(path)
			if err != nil {
				continue
			}
			if os.Truncate(path, info.Size()/2) == nil {
				cf.Trunced++
				p.counts.CacheFaults++
			}
		case p.cache.Bernoulli(p.rates.CacheDeny):
			if os.Chmod(path, 0) == nil {
				cf.Denied++
				p.counts.CacheFaults++
			}
		}
	}
	return cf, nil
}
