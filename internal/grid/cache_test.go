package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
)

// realResult produces a result with the full float surface exercised, so
// the disk round trip proves exact float preservation.
func realResult(t *testing.T) mac.Result {
	t.Helper()
	r, err := ScenarioSpec(tinyScenario(core.ProtoCharisma, 10, 3)).RunRep(0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiskCacheRoundTripExact(t *testing.T) {
	c := DiskCache{Dir: t.TempDir()}
	r := realResult(t)
	key := RepKey("deadbeef", 42)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, r)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("disk round trip not exact:\n%+v\n%+v", r, got)
	}
}

// TestDiskCacheLargeEntryRoundTrip: an entry larger than Get's starting
// read buffer, and one past the largest buffer it pools, reads back whole,
// so a read that stopped short would quarantine it; a later small entry
// still reads back through the pool.
func TestDiskCacheLargeEntryRoundTrip(t *testing.T) {
	c := NewDiskCache(t.TempDir(), nil)
	small := realResult(t)
	for i, n := range []int{entryBufSize, 3 * entryBufSize, 2 * maxPooledEntry} {
		r := small
		r.Protocol = strings.Repeat("p", n)
		key := RepKey("1a2e", int64(i))
		c.Put(key, r)
		got, ok := c.Get(key)
		if !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("%d-byte protocol: hit %v, exact %v", n, ok, reflect.DeepEqual(got, r))
		}
		key = RepKey("5ma11", int64(i))
		c.Put(key, small)
		if got, ok := c.Get(key); !ok || !reflect.DeepEqual(got, small) {
			t.Fatalf("after a %d-byte entry: small entry hit %v", n, ok)
		}
	}
	if n := c.Stats().DiskCorrupt; n != 0 {
		t.Fatalf("DiskCorrupt = %d, want 0", n)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := DiskCache{Dir: dir}
	key := RepKey("deadbeef", 1)
	c.Put(key, mac.Result{Protocol: "x"})
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(p, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as hit")
	}
	// A literal DiskCache has no counters to report.
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("literal DiskCache reports %+v", st)
	}
}

func TestDiskCacheRejectsUnsafeKeys(t *testing.T) {
	c := DiskCache{Dir: t.TempDir()}
	for _, key := range []string{"", "ab", "../../etc/passwd", "a/b"} {
		c.Put(key, mac.Result{})
		if _, ok := c.Get(key); ok {
			t.Fatalf("unsafe key %q round-tripped", key)
		}
	}
}

func TestTieredPromotesDiskHits(t *testing.T) {
	disk := DiskCache{Dir: t.TempDir()}
	key := RepKey("cafe00", 3)
	want := mac.Result{Protocol: "y", Frames: 12.5}
	disk.Put(key, want)
	mem := NewMemCache()
	c := Tiered(mem, disk)
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("tiered miss through to disk: %v %+v", ok, got)
	}
	if _, ok := mem.Get(key); !ok {
		t.Fatal("disk hit not promoted to memory")
	}
}

func TestNewCacheSelectsStack(t *testing.T) {
	if _, ok := NewCache("").(*MemCache); !ok {
		t.Fatal("empty dir should build a memory-only cache")
	}
	if _, ok := NewCache(t.TempDir()).(*tiered); !ok {
		t.Fatal("dir should build a tiered cache")
	}
}

// TestDiskCacheQuarantinesCorruptEntry: an entry that fails its
// integrity check is renamed to <key>.corrupt (kept for post-mortem),
// counted, and never re-read as a miss — a fresh Put of the key lands
// in a clean file.
func TestDiskCacheQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	c := NewDiskCache(dir, slog.New(slog.NewTextHandler(&log, nil)))
	key := RepKey("deadbeef", 1)
	c.Put(key, realResult(t))
	p, _ := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not moved out of the read path")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(p), key+".corrupt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
	// A second Get is a plain miss — the quarantined file is not
	// re-detected (and re-counted) forever.
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after quarantine")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt re-counted: %d", n)
	}
	if n := strings.Count(log.String(), "corrupt cache entry quarantined"); n != 1 {
		t.Fatalf("quarantine logged %d times, want once\n%s", n, log.String())
	}
	// The key is writable again.
	want := realResult(t)
	c.Put(key, want)
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(want, got) {
		t.Fatal("fresh put after quarantine did not round-trip")
	}
}

// TestDiskCacheChecksumCatchesSilentCorruption: a flipped digit inside
// the result JSON still parses — only the CRC envelope can tell. The
// entry must be detected and quarantined, never served.
func TestDiskCacheChecksumCatchesSilentCorruption(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("cafebabe", 2)
	c.Put(key, realResult(t))
	p, _ := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var e legacyEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	// Perturb one digit of the payload, keeping the entry valid JSON with
	// the original (now wrong) checksum.
	digits := "0123456789"
	i := bytes.IndexAny(e.Result, digits)
	if i < 0 {
		t.Fatal("no digit to perturb")
	}
	e.Result[i] = digits[(strings.IndexByte(digits, e.Result[i])+1)%10]
	b2, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("silently corrupted entry served as hit")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
}

// legacyEntry is the v2 envelope as a JSON struct, the way entries were
// first written: json.Marshal(legacyEntry{...}) must stay byte-equal to
// what DiskCache.Put writes, so caches filled then stay warm.
type legacyEntry struct {
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

func legacyBody(t testing.TB, r mac.Result) []byte {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func legacyMarshal(t testing.TB, r mac.Result) []byte {
	t.Helper()
	body := legacyBody(t, r)
	b, err := json.Marshal(legacyEntry{Sum: fmt.Sprintf("%08x", crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))), Result: body})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeEntry wraps an arbitrary body in the v2 envelope, byte for byte.
func encodeEntry(body []byte) []byte {
	sum := entrySum(body)
	return fmt.Appendf(nil, "%s%s%s%s}", entryHead, sum[:], entryMid, body)
}

// TestDiskEntryMatchesLegacyEncoding: Put writes exactly the bytes of the
// struct-marshaled envelope, and an entry written that way reads back.
func TestDiskEntryMatchesLegacyEncoding(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	for i, r := range []mac.Result{realResult(t), {}, {Protocol: `<a&b> "q" \ é`, Frames: 1e-300}} {
		key := RepKey("facade", int64(i))
		want := legacyMarshal(t, r)
		c.Put(key, r)
		p, _ := c.path(key)
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d: Put wrote\n%s\nwant\n%s", i, got, want)
		}
		other := RepKey("facade", int64(100+i))
		op, _ := c.path(other)
		if err := os.MkdirAll(filepath.Dir(op), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(op, want, 0o644); err != nil {
			t.Fatal(err)
		}
		back, ok := c.Get(other)
		if !ok || !reflect.DeepEqual(back, r) {
			t.Fatalf("result %d: legacy-written entry did not read back: %v %+v", i, ok, back)
		}
	}
	if n := c.Stats().DiskCorrupt; n != 0 {
		t.Fatalf("DiskCorrupt = %d, want 0", n)
	}
}

// TestDiskCacheReformattedEntryQuarantined: the byte layout is the format.
// A reformatted entry — valid JSON, right checksum — is quarantined, which
// costs a re-simulation and can never serve a wrong result.
func TestDiskCacheReformattedEntryQuarantined(t *testing.T) {
	for name, edit := range map[string]func([]byte) []byte{
		"indented": func(b []byte) []byte {
			var out bytes.Buffer
			json.Indent(&out, b, "", "  ")
			return out.Bytes()
		},
		"trailing newline": func(b []byte) []byte { return append(b, '\n') },
		"upper-case sum":   func(b []byte) []byte { return bytes.Replace(b, b[8:16], bytes.ToUpper(b[8:16]), 1) },
		"reordered": func(b []byte) []byte {
			var e legacyEntry
			json.Unmarshal(b, &e)
			return []byte(`{"result":` + string(e.Result) + `,"sum":"` + e.Sum + `"}`)
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := NewDiskCache(t.TempDir(), nil)
			key := RepKey("5eed", 1)
			r := mac.Result{Protocol: "abcdef", Frames: 3}
			c.Put(key, r)
			p, _ := c.path(key)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			edited := edit(bytes.Clone(b))
			if bytes.Equal(edited, b) {
				t.Fatal("edit left the entry unchanged")
			}
			if err := os.WriteFile(p, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("reformatted entry served as hit:\n%s", edited)
			}
			if n := c.Stats().DiskCorrupt; n != 1 {
				t.Fatalf("DiskCorrupt = %d, want 1", n)
			}
		})
	}
}

// TestDiskCacheBodyLayoutQuarantined: the body must be mac.Result's own
// layout, as Put writes it. A body with the right CRC but a missing field
// (what a binary from before the field existed wrote), an unknown field,
// reordered fields or inner whitespace is valid JSON that json.Unmarshal
// accepts, yet serving it would break the promise that a hit equals a
// re-run: it is quarantined like a bad checksum.
func TestDiskCacheBodyLayoutQuarantined(t *testing.T) {
	body, err := json.Marshal(mac.Result{Protocol: "charisma", Frames: 400, VoiceGenerated: 343, Reps: mac.RepStats{Replications: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"missing field":    []byte(`{"Protocol":"charisma","Frames":400,"VoiceGenerated":343}`),
		"unknown field":    append(bytes.TrimSuffix(bytes.Clone(body), []byte("}")), `,"Bogus":1}`...),
		"reordered fields": bytes.Replace(body, []byte(`"Protocol":"charisma","Frames":400`), []byte(`"Frames":400,"Protocol":"charisma"`), 1),
		"inner whitespace": bytes.Replace(body, []byte(`"Frames":400`), []byte(`"Frames": 400`), 1),
	} {
		t.Run(name, func(t *testing.T) {
			if bytes.Equal(b, body) {
				t.Fatal("edit left the body unchanged")
			}
			var loose mac.Result
			if err := json.Unmarshal(b, &loose); err != nil {
				t.Fatalf("body is not even loose JSON: %v", err)
			}
			c := NewDiskCache(t.TempDir(), nil)
			key := RepKey("b0d1e5", 1)
			p, _ := c.path(key)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, encodeEntry(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if r, ok := c.Get(key); ok {
				t.Fatalf("body %s served as a hit: %+v", b, r)
			}
			if n := c.Stats().DiskCorrupt; n != 1 {
				t.Fatalf("DiskCorrupt = %d, want 1", n)
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(p), key+".corrupt")); err != nil {
				t.Fatalf("entry not quarantined: %v", err)
			}
		})
	}
}

// TestDiskCachePutFailures: each way a write can fail is counted as a put
// error and leaves no entry, and no temp file, behind. The failures come
// from the file tree, since permission bits do not stop root.
func TestDiskCachePutFailures(t *testing.T) {
	key := RepKey("f00d", 1)
	for _, c := range []struct {
		name  string
		key   string
		block func(t *testing.T, shard, entry string)
	}{
		{"shard directory is a file", key, func(t *testing.T, shard, _ string) {
			if err := os.WriteFile(shard, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"key too long for a file name", strings.Repeat(key, 5), nil},
		{"entry path is a non-empty directory", key, func(t *testing.T, _, entry string) {
			if err := os.MkdirAll(filepath.Join(entry, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dc := NewDiskCache(t.TempDir(), nil)
			entry, _ := dc.path(c.key)
			shard := filepath.Dir(entry)
			if c.block != nil {
				c.block(t, shard, entry)
			}
			dc.Put(c.key, mac.Result{Protocol: "x"})
			if n := dc.Stats().DiskPutErrors; n != 1 {
				t.Fatalf("DiskPutErrors = %d, want 1", n)
			}
			if _, ok := dc.Get(c.key); ok {
				t.Fatal("hit after a failed put")
			}
			if tmps, _ := filepath.Glob(filepath.Join(shard, ".*")); len(tmps) > 0 {
				t.Fatalf("failed put left temp files: %v", tmps)
			}
		})
	}
	// A result json.Marshal cannot encode is not stored, and that is no
	// disk failure.
	dc := NewDiskCache(t.TempDir(), nil)
	dc.Put(key, mac.Result{Frames: math.NaN()})
	if n := dc.Stats().DiskPutErrors; n != 0 {
		t.Fatalf("unencodable result counted as %d put errors", n)
	}
	if p, _ := dc.path(key); fileExists(p) {
		t.Fatal("unencodable result written")
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestDiskCacheQuarantineRenameFails: when the corrupt entry cannot be
// moved aside (here a non-empty directory holds <key>.corrupt), it stays
// in place and every read misses; DiskCorrupt counts quarantined entries
// only, so it stays 0, and each read logs the failure.
func TestDiskCacheQuarantineRenameFails(t *testing.T) {
	var buf strings.Builder
	c := NewDiskCache(t.TempDir(), slog.New(slog.NewTextHandler(&buf, nil)))
	key := RepKey("0bad", 5)
	c.Put(key, mac.Result{Protocol: "x"})
	p, _ := c.path(key)
	if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(filepath.Dir(p), key+".corrupt", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(key); ok {
			t.Fatal("corrupt entry served as hit")
		}
	}
	if !fileExists(p) {
		t.Fatal("entry moved despite the failed rename")
	}
	if n := c.Stats().DiskCorrupt; n != 0 {
		t.Fatalf("DiskCorrupt = %d for an entry that was not quarantined", n)
	}
	if n := strings.Count(buf.String(), "quarantine failed"); n != 2 {
		t.Fatalf("failed quarantine logged %d times, want 2\n%s", n, buf.String())
	}
	// Two readers of one corrupt entry race to move it: the loser finds
	// it gone, and neither counts nor logs a second time.
	buf.Reset()
	c.quarantine(p+".gone", key)
	if n := c.Stats().DiskCorrupt; n != 0 || buf.Len() > 0 {
		t.Fatalf("quarantine of a vanished entry: DiskCorrupt %d, log %q", n, buf.String())
	}
}

// FuzzDiskEntry: arbitrary entry bytes never panic decodeEntry, the checks
// Get runs on what it read, and a hit implies the exact layout Put writes,
// with a matching CRC-32C, over a body the strict decode accepts as the
// hit's value. It touches no file; the disk tests above cover Get's I/O
// and quarantine.
func FuzzDiskEntry(f *testing.F) {
	f.Add(legacyMarshal(f, mac.Result{Protocol: "charisma", Frames: 12.5}))
	f.Add(legacyMarshal(f, mac.Result{}))
	f.Add(encodeEntry([]byte(`{"Protocol":"charisma","Frames":400,"VoiceGenerated":343}`)))
	f.Add(encodeEntry(append(bytes.TrimSuffix(legacyBody(f, mac.Result{}), []byte("}")), `,"Bogus":1}`...)))
	f.Add([]byte(`{"sum":"00000000","result":{}}`))
	f.Add([]byte(`{"result":{},"sum":"00000000"}`))
	f.Add([]byte(`{"Protocol":"v1"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := decodeEntry(data)
		if !ok {
			return
		}
		const head, mid = `{"sum":"`, `","result":`
		if len(data) < len(head)+8+len(mid)+1 || string(data[:len(head)]) != head ||
			string(data[len(head)+8:len(head)+8+len(mid)]) != mid || data[len(data)-1] != '}' {
			t.Fatalf("hit on an entry without the put layout: %q", data)
		}
		body := data[len(head)+8+len(mid) : len(data)-1]
		if sum := fmt.Sprintf("%08x", crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))); sum != string(data[len(head):len(head)+8]) {
			t.Fatalf("hit with checksum %s over a body summing to %s", data[len(head):len(head)+8], sum)
		}
		var want mac.Result
		if err := strictDecode(body, &want); err != nil || !reflect.DeepEqual(r, want) {
			t.Fatalf("hit %+v does not strict-decode from the body (%v)", r, err)
		}
	})
}

// TestDiskCacheLegacyEntryQuarantined: a v1 entry (bare result JSON, no
// checksum envelope) is unverifiable — quarantined, not trusted.
func TestDiskCacheLegacyEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("0ddba11", 3)
	p, _ := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(mac.Result{Protocol: "v1"})
	if err := os.WriteFile(p, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("unverifiable legacy entry served as hit")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
}

// TestDiskCacheDegradesWhenUnwritable: when the cache directory stops
// accepting writes, the disk tier counts the failures, logs exactly
// once, and stops trying — it degrades instead of spamming errors on
// every Put. (The unwritable dir is simulated by rooting the cache
// under a regular file — ENOTDIR — which fails for root too, unlike
// chmod.)
func TestDiskCacheDegradesWhenUnwritable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, nil))
	c := NewDiskCache(filepath.Join(blocker, "cache"), log)
	for i := 0; i < diskDisableAfter+3; i++ {
		c.Put(RepKey("deadbeef", int64(i)), mac.Result{Protocol: "x"})
	}
	st := c.Stats()
	if st.DiskPutErrors != diskDisableAfter {
		t.Fatalf("DiskPutErrors = %d, want %d (writes after degradation must not be attempted)",
			st.DiskPutErrors, diskDisableAfter)
	}
	if n := strings.Count(buf.String(), "degraded"); n != 1 {
		t.Fatalf("degradation logged %d times, want exactly once\n%s", n, buf.String())
	}
	// Reads still answer (as misses) — the tier above carries the session.
	if _, ok := c.Get(RepKey("deadbeef", 0)); ok {
		t.Fatal("impossible hit from an unwritable cache")
	}
}

// TestCacheDelete: eviction reaches both tiers, so a purged key cannot
// resurface from disk on the next miss.
func TestCacheDelete(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	key := RepKey("deadbeef", 9)
	want := mac.Result{Protocol: "z"}
	c.Put(key, want)
	if _, ok := c.Get(key); !ok {
		t.Fatal("miss before delete")
	}
	c.Delete(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after delete")
	}
	if _, ok := NewDiskCache(dir, nil).Get(key); ok {
		t.Fatal("delete did not reach the disk tier")
	}
}
