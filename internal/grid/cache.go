package grid

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"charisma/internal/mac"
)

// Cache stores one mac.Result per replication under its RepKey. A cache
// only ever serves results it was handed for exactly that key, so a hit is
// always byte-identical to re-running the simulation. The disk tier keeps
// that promise by serving only a body in json.Marshal's own layout of
// mac.Result, read back with strconv's exact float parse; a body in any
// other shape is quarantined.
type Cache interface {
	// Get returns the cached result for key, if present. Get must be safe
	// for concurrent use: a session resolves its initial replications with
	// parallel Gets.
	Get(key string) (mac.Result, bool)
	// Put stores the result for key. Put is best-effort: storage errors
	// degrade to future misses, never to failures.
	Put(key string, r mac.Result)
	// Delete evicts key from every tier. The byzantine-audit path uses it
	// to purge results produced by a quarantined worker before they can
	// poison a future sweep; like Put it is best-effort.
	Delete(key string)
}

// NewCache builds the standard cache stack: in-memory only when dir is
// empty, otherwise an in-memory cache tiered over an on-disk one rooted at
// dir (the -cache-dir layout: dir/<key[:2]>/<key>.json).
func NewCache(dir string) Cache { return NewCacheLogged(dir, nil) }

// NewCacheLogged is NewCache with an operator log: the disk tier reports
// its degradation (an unwritable cache directory disables disk writes,
// once) to log instead of failing silently. A nil log stays silent.
func NewCacheLogged(dir string, log *slog.Logger) Cache {
	if dir == "" {
		return NewMemCache()
	}
	return Tiered(NewMemCache(), NewDiskCache(dir, log))
}

// CacheStats is a point-in-time snapshot of a cache stack's hit/miss
// traffic, split by tier. Caches that can report stats implement
// StatsReporter; /metrics renders whatever the session's cache exposes.
type CacheStats struct {
	MemHits    uint64
	MemMisses  uint64 // mem-tier misses (may still hit disk below)
	DiskHits   uint64
	DiskMisses uint64
	// DiskCorrupt counts entries that failed their integrity check or
	// were not in the put layout, and were quarantined (renamed
	// <key>.corrupt) instead of being served. An entry whose rename
	// fails is not counted; it stays a miss.
	DiskCorrupt uint64
	// DiskPutErrors counts failed disk writes; enough consecutive
	// failures disable the disk tier's writes (reads keep working).
	DiskPutErrors uint64
}

// StatsReporter is implemented by caches that count their traffic.
type StatsReporter interface {
	Stats() CacheStats
}

// MemCache is a concurrency-safe in-memory cache.
type MemCache struct {
	mu sync.RWMutex
	m  map[string]mac.Result

	hits, misses atomic.Uint64
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[string]mac.Result)}
}

// Get implements Cache.
func (c *MemCache) Get(key string) (mac.Result, bool) {
	c.mu.RLock()
	r, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// Stats implements StatsReporter.
func (c *MemCache) Stats() CacheStats {
	return CacheStats{MemHits: c.hits.Load(), MemMisses: c.misses.Load()}
}

// Put implements Cache.
func (c *MemCache) Put(key string, r mac.Result) {
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
}

// Delete implements Cache.
func (c *MemCache) Delete(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Len returns the number of cached replications.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// A disk entry (format v2) is exactly these bytes:
//
//	{"sum":"<8 lowercase hex digits>","result":<body>}
//
// where body is json.Marshal's encoding of the mac.Result (written by
// appendJSON straight into the envelope, see canon.go) and the digits are
// CRC-32C (Castagnoli) over body. The checksum turns silent disk
// corruption — a flipped bit inside a float's digits still parses as
// valid JSON — into a detected, quarantined entry instead of a wrong
// result served as a hit. The layout itself is the format, body included:
// Get checks the envelope byte for byte and reads the body with
// decodeCanonical, so a v1 entry (bare mac.Result JSON), a
// hand-reformatted, truncated or re-indented entry, and a body with a
// missing, unknown or reordered field (what an older binary wrote before
// a field existed) are quarantined too. That costs a re-simulation, never
// a wrong hit.
const (
	entryHead   = `{"sum":"`
	entryMid    = `","result":`
	entrySumLen = 8
	entryBody   = len(entryHead) + entrySumLen + len(entryMid) // body offset
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// entrySum returns body's CRC-32C as 8 lowercase hex digits.
func entrySum(body []byte) (sum [entrySumLen]byte) {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(body, crcTable))
	hex.Encode(sum[:], crc[:])
	return sum
}

// appendEntry appends r's v2 entry to dst: the body is encoded in place
// behind the envelope's head, then summed into it.
func appendEntry(dst []byte, r mac.Result) ([]byte, error) {
	at := len(dst)
	dst = append(dst, entryHead...)
	dst = append(dst, make([]byte, entrySumLen)...) // the sum, filled below
	dst = append(dst, entryMid...)
	dst, err := appendJSON(dst, r)
	if err != nil {
		return dst[:at], err
	}
	sum := entrySum(dst[at+entryBody:])
	copy(dst[at+len(entryHead):], sum[:])
	return append(dst, '}'), nil
}

// entryResult returns the body of a well-formed v2 entry whose checksum
// matches, or ok=false.
func entryResult(b []byte) (body []byte, ok bool) {
	if len(b) < entryBody+1 || string(b[:len(entryHead)]) != entryHead ||
		string(b[entryBody-len(entryMid):entryBody]) != entryMid || b[len(b)-1] != '}' {
		return nil, false
	}
	body = b[entryBody : len(b)-1]
	if entrySum(body) != [entrySumLen]byte(b[len(entryHead):]) {
		return nil, false
	}
	return body, true
}

// diskState carries the optional mutable half of a DiskCache: degradation
// and quarantine counters shared by every copy of the value. A zero
// DiskCache (literal construction) has none and simply skips counting and
// degradation.
type diskState struct {
	corrupt   atomic.Uint64
	putErrs   atomic.Uint64
	consecPut atomic.Uint32
	disabled  atomic.Bool
	logOnce   sync.Once
	log       *slog.Logger
}

// diskDisableAfter is how many consecutive write failures flip the disk
// tier to read-only degradation: one failure may be transient (ENOSPC
// racing a cleanup), a streak means the directory is gone or unwritable.
const diskDisableAfter = 3

// DiskCache persists replication results under Dir, sharded by the first
// two hex digits of the key so directories stay small on wide sweeps.
// Writes are atomic (temp file + rename), so a killed sweep never leaves a
// truncated entry behind. Every entry carries a CRC-32C; an entry that
// fails its integrity check or is not in the put layout is quarantined —
// renamed to <key>.corrupt for post-mortem and counted in CacheStats —
// instead of being re-read (and re-missed, or worse, silently served
// wrong) on every future run.
//
// When constructed via NewDiskCache, the cache degrades gracefully if its
// directory stops accepting writes (volume remounted read-only, quota
// hit): after a few consecutive write failures it logs once, stops
// writing, and keeps serving reads — the memory tier above it carries the
// session onward.
type DiskCache struct {
	Dir string

	s *diskState
}

// NewDiskCache returns a disk cache rooted at dir with degradation and
// quarantine counting armed; log (optional) receives the one-time
// degradation warning.
func NewDiskCache(dir string, log *slog.Logger) DiskCache {
	return DiskCache{Dir: dir, s: &diskState{log: log}}
}

// path returns where key's entry lives on disk; ok is false for keys the
// cache would refuse.
func (c DiskCache) path(key string) (string, bool) {
	// Keys are hex hashes; refuse anything that could walk the tree.
	if len(key) < 3 || filepath.Base(key) != key {
		return "", false
	}
	return filepath.Join(c.Dir, key[:2], key+".json"), true
}

// Get implements Cache. It serves an entry only when the envelope has the
// exact put layout with a matching CRC and the body decodes in
// json.Marshal's own layout of mac.Result (decodeCanonical); anything else
// is quarantined and read as a miss. The entry is read whole into a pooled
// buffer (readEntry), which goes back to the pool once decodeEntry has
// copied the result out.
func (c DiskCache) Get(key string) (mac.Result, bool) {
	p, ok := c.path(key)
	if !ok {
		return mac.Result{}, false
	}
	buf := entryBufs.Get().(*[]byte)
	b, err := readEntry(p, (*buf)[:0])
	r, ok := mac.Result{}, false
	if err == nil {
		if r, ok = decodeEntry(b); !ok {
			c.quarantine(p, key)
		}
	}
	releaseEntryBuf(buf, b)
	return r, ok
}

// entryBufs pools the buffers Get reads entries into and put encodes them
// in. An entry is about 800 bytes; the CRC-32C call lets a buffer escape,
// so a stack buffer would be a heap allocation per call.
var entryBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, entryBufSize)
	return &b
}}

const (
	entryBufSize   = 2 << 10
	maxPooledEntry = 64 << 10
)

// releaseEntryBuf returns b, the latest use of *buf, to entryBufs, unless
// an outsized entry grew it past maxPooledEntry.
func releaseEntryBuf(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledEntry {
		*buf = b[:0]
		entryBufs.Put(buf)
	}
}

// decodeEntry runs Get's byte checks on an entry's contents: it returns the
// result only for the exact put layout with a matching CRC over a body in
// json.Marshal's own layout of mac.Result (decodeCanonical).
func decodeEntry(b []byte) (mac.Result, bool) {
	var r mac.Result
	if body, ok := entryResult(b); !ok || !decodeCanonical(body, &r) {
		return mac.Result{}, false
	}
	return r, true
}

// quarantine moves a corrupt entry aside as <key>.corrupt — it stops
// being re-read as a miss on every run, stays available for post-mortem,
// and a fresh Put of the key lands in a clean file. Only a completed move
// counts in CacheStats.DiskCorrupt: an entry that cannot be moved stays
// where it is and is reported, and missed, again on every read. An entry
// already gone was moved by a concurrent reader, which counted it.
func (c DiskCache) quarantine(p, key string) {
	err := os.Rename(p, filepath.Join(filepath.Dir(p), key+".corrupt"))
	if c.s == nil || errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		if c.s.log != nil {
			c.s.log.Warn("corrupt cache entry left in place, quarantine failed", "key", key, "path", p, "err", err)
		}
		return
	}
	c.s.corrupt.Add(1)
	if c.s.log != nil {
		c.s.log.Warn("corrupt cache entry quarantined", "key", key, "path", p+" -> "+key+".corrupt")
	}
}

// Put implements Cache.
func (c DiskCache) Put(key string, r mac.Result) {
	if c.s != nil && c.s.disabled.Load() {
		return
	}
	err := c.put(key, r)
	if c.s == nil {
		return
	}
	if err == nil {
		c.s.consecPut.Store(0)
		return
	}
	c.s.putErrs.Add(1)
	if c.s.consecPut.Add(1) >= diskDisableAfter {
		c.s.disabled.Store(true)
		c.s.logOnce.Do(func() {
			if c.s.log != nil {
				c.s.log.Warn("cache dir unwritable, disk tier degraded to read-only; serving from memory",
					"dir", c.Dir, "err", err)
			}
		})
	}
}

func (c DiskCache) put(key string, r mac.Result) error {
	p, ok := c.path(key)
	if !ok {
		return nil // refused key, not a disk failure
	}
	buf := entryBufs.Get().(*[]byte)
	b, err := appendEntry((*buf)[:0], r)
	defer releaseEntryBuf(buf, b)
	if err != nil {
		return nil // an unencodable result is not a disk failure
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Delete implements Cache.
func (c DiskCache) Delete(key string) {
	if p, ok := c.path(key); ok {
		_ = os.Remove(p)
	}
}

// Stats implements StatsReporter with the disk-side counters; the tiered
// wrapper above fills in hit/miss traffic.
func (c DiskCache) Stats() CacheStats {
	if c.s == nil {
		return CacheStats{}
	}
	return CacheStats{DiskCorrupt: c.s.corrupt.Load(), DiskPutErrors: c.s.putErrs.Load()}
}

// tiered reads through fast to slow, promoting slow hits, and writes both.
// Pointer type: the slow-tier counters must survive the Cache interface
// value being copied around.
type tiered struct {
	fast *MemCache
	slow Cache

	slowHits, slowMisses atomic.Uint64
}

// Tiered layers an in-memory cache over a slower backing cache.
func Tiered(fast *MemCache, slow Cache) Cache {
	return &tiered{fast: fast, slow: slow}
}

// Get implements Cache.
func (t *tiered) Get(key string) (mac.Result, bool) {
	if r, ok := t.fast.Get(key); ok {
		return r, true
	}
	r, ok := t.slow.Get(key)
	if ok {
		t.slowHits.Add(1)
		t.fast.Put(key, r)
	} else {
		t.slowMisses.Add(1)
	}
	return r, ok
}

// Put implements Cache.
func (t *tiered) Put(key string, r mac.Result) {
	t.fast.Put(key, r)
	t.slow.Put(key, r)
}

// Delete implements Cache.
func (t *tiered) Delete(key string) {
	t.fast.Delete(key)
	t.slow.Delete(key)
}

// Stats implements StatsReporter: the mem tier's own traffic plus the
// disk tier's hits/misses (a disk hit implies a mem miss that was then
// promoted) and, when the slow tier counts them, its quarantine and
// write-failure totals.
func (t *tiered) Stats() CacheStats {
	s := t.fast.Stats()
	s.DiskHits = t.slowHits.Load()
	s.DiskMisses = t.slowMisses.Load()
	if sr, ok := t.slow.(StatsReporter); ok {
		ss := sr.Stats()
		s.DiskCorrupt = ss.DiskCorrupt
		s.DiskPutErrors = ss.DiskPutErrors
	}
	return s
}
