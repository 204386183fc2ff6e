package main

// The result ledger is the benchmark's correctness check: a digest over
// every replication result a pass produced, keyed by RepKey. Every pass of
// a run must reproduce its set-up's ledger, and for the pinned seed on the
// pinned platform the ledger must equal the digest in ledger.json.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"charisma/internal/grid"
	"charisma/internal/mac"
)

// recorder is a grid.Cache decorator that keeps every result the session
// stores (a simulated replication) or is served (a cache hit), so a pass's
// results can be digested after it ends, outside the timed region.
type recorder struct {
	grid.Cache
	mu  sync.Mutex
	got map[string]mac.Result
}

func newRecorder(c grid.Cache) *recorder {
	return &recorder{Cache: c, got: make(map[string]mac.Result)}
}

// Get implements grid.Cache.
func (r *recorder) Get(key string) (mac.Result, bool) {
	res, ok := r.Cache.Get(key)
	if ok {
		r.keep(key, res)
	}
	return res, ok
}

// Put implements grid.Cache.
func (r *recorder) Put(key string, res mac.Result) {
	r.keep(key, res)
	r.Cache.Put(key, res)
}

func (r *recorder) keep(key string, res mac.Result) {
	r.mu.Lock()
	r.got[key] = res
	r.mu.Unlock()
}

// results returns a copy of the recorded results.
func (r *recorder) results() map[string]mac.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]mac.Result, len(r.got))
	for k, v := range r.got {
		out[k] = v
	}
	return out
}

// digest is the ledger: SHA-256 over one "RepKey canonical-JSON\n" line per
// recorded result, in RepKey order.
func (r *recorder) digest() (string, error) {
	got := r.results()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	for _, k := range keys {
		b, err := json.Marshal(got[k])
		if err != nil {
			return "", fmt.Errorf("ledger: encode %s: %w", k, err)
		}
		fmt.Fprintf(h, "%s %s\n", k, b)
	}
	return fmt.Sprintf("%s/%d", hex.EncodeToString(h.Sum(nil)), len(keys)), nil
}

// pins are the ledgers recorded for the full-size workloads at one seed on
// one platform. Float results are only promised bit-identical on the
// platform they were recorded on, so other platforms skip the pin and rely
// on the in-run checks.
type pins struct {
	Platform string            `json:"platform"`
	Seed     int64             `json:"seed"`
	Digests  map[string]string `json:"digests"`
}

//go:embed ledger.json
var pinsJSON []byte

var loadPins = sync.OnceValue(func() pins {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fmt.Fprintln(os.Stderr, "bench: ledger.json:", err)
	}
	return p
})

// pinnedDigest returns the pinned ledger of a workload for seed, when one
// applies to this platform. The two corpus workloads walk the same corpus,
// so they share one pin: HTTP, loopback and the warm disk cache must all
// produce these bytes.
func pinnedDigest(workload string, seed int64) (string, bool) {
	p := loadPins()
	if p.Platform != runtime.GOOS+"/"+runtime.GOARCH || p.Seed != seed {
		return "", false
	}
	if strings.HasPrefix(workload, "corpus-") {
		workload = "corpus"
	}
	d, ok := p.Digests[workload]
	return d, ok
}
