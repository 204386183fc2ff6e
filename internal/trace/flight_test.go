package trace_test

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/phy"
	"charisma/internal/prof"
	"charisma/internal/sim"
	"charisma/internal/trace"
)

func buildCell(t testing.TB, nv int) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = nv
	sys, proto, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto.Init(sys)
	return sys, proto
}

func runFrames(sys *mac.System, proto mac.Protocol, n int) {
	for i := 0; i < n; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
}

// parseFlight reads one JSONL dump: the meta line then the frames.
func parseFlight(t *testing.T, path string) (meta map[string]any, frames []trace.FrameEvent) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Meta bool `json:"meta"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		if probe.Meta {
			meta = map[string]any{}
			if err := json.Unmarshal(line, &meta); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ev trace.FrameEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return meta, frames
}

func TestFlightRingDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	trace.ArmFlight(16, path)
	defer trace.ArmFlight(0, "")

	sys, proto := buildCell(t, 20)
	fl := trace.AttachFlight(sys, 16, "ring-test")
	defer fl.Close()
	runFrames(sys, proto, 400)
	fl.Dump("test")

	meta, frames := parseFlight(t, path)
	if meta == nil {
		t.Fatal("no meta line in dump")
	}
	if got := int64(meta["frames_seen"].(float64)); got != 400 {
		t.Fatalf("frames_seen = %d, want 400", got)
	}
	if got := int64(meta["dropped"].(float64)); got != 400-16 {
		t.Fatalf("dropped = %d, want %d", got, 400-16)
	}
	if len(frames) != 16 {
		t.Fatalf("retained %d frames, want 16", len(frames))
	}
	// Oldest-first, contiguous, ending at the last completed frame.
	for i := 1; i < len(frames); i++ {
		if frames[i].Frame != frames[i-1].Frame+1 {
			t.Fatalf("ring not contiguous at %d: %d then %d", i, frames[i-1].Frame, frames[i].Frame)
		}
	}
	if last := frames[len(frames)-1].Frame; last != 399 {
		t.Fatalf("last frame %d, want 399", last)
	}
	var activity uint64
	for _, ev := range frames {
		activity += ev.Attempts + ev.VoiceOK + ev.VoiceErr + ev.Grants
		if ev.Dur <= 0 {
			t.Fatalf("frame %d has non-positive duration %d", ev.Frame, ev.Dur)
		}
	}
	if activity == 0 {
		t.Fatal("an active voice cell recorded zero MAC activity over 16 frames")
	}
}

func TestFlightDumpsOnDumpAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	trace.ArmFlight(8, path)
	defer trace.ArmFlight(0, "")

	sys, proto := buildCell(t, 10)
	fl := trace.AttachFlight(sys, 8, "anomaly-test")
	defer fl.Close()
	runFrames(sys, proto, 50)
	prof.DumpAll("sweep-anomaly: test")

	meta, frames := parseFlight(t, path)
	if meta == nil || len(frames) != 8 {
		t.Fatalf("DumpAll produced meta=%v frames=%d, want meta + 8 frames", meta, len(frames))
	}
	if meta["reason"] != "sweep-anomaly: test" {
		t.Fatalf("reason = %q", meta["reason"])
	}
}

func TestFlightCloseDetaches(t *testing.T) {
	trace.ArmFlight(8, filepath.Join(t.TempDir(), "flight.jsonl"))
	defer trace.ArmFlight(0, "")
	sys, proto := buildCell(t, 10)
	fl := trace.AttachFlight(sys, 8, "close-test")
	runFrames(sys, proto, 10)
	fl.Close()
	if sys.DebugEndFrame != nil {
		t.Fatal("Close left the DebugEndFrame hook installed")
	}
	runFrames(sys, proto, 10) // must not panic or record
}

// TestDumpOnPanicDumpsEveryRing: a panic under DumpOnPanic dumps every
// ring it was given, then keeps unwinding.
func TestDumpOnPanicDumpsEveryRing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	trace.ArmFlight(8, path)
	defer trace.ArmFlight(0, "")
	var fls []*trace.Flight
	for _, label := range []string{"cell=0", "cell=1"} {
		sys, proto := buildCell(t, 10)
		fl := trace.AttachFlight(sys, 8, label)
		defer fl.Close()
		runFrames(sys, proto, 20)
		fls = append(fls, fl)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the loop's own panic", r)
			}
		}()
		defer trace.DumpOnPanic(fls...)
		panic("boom")
	}()
	rings := parseRings(t, path)
	if len(rings) != 2 {
		t.Fatalf("%d rings dumped, want 2", len(rings))
	}
	for _, r := range rings {
		if r.meta["reason"] != "panic: boom" || len(r.frames) != 8 {
			t.Fatalf("ring %q: reason %q, %d frames; want \"panic: boom\" and 8", r.meta["label"], r.meta["reason"], len(r.frames))
		}
	}
}

// ring is one recorder's part of a dump: its meta line and frames.
type ring struct {
	meta   map[string]any
	frames []trace.FrameEvent
}

// parseRings splits a dump file into its rings, in file order.
func parseRings(t *testing.T, path string) []ring {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rings []ring
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Meta bool `json:"meta"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		if probe.Meta {
			meta := map[string]any{}
			if err := json.Unmarshal(line, &meta); err != nil {
				t.Fatal(err)
			}
			rings = append(rings, ring{meta: meta})
			continue
		}
		if len(rings) == 0 {
			t.Fatalf("frame line %q before any meta line", line)
		}
		var ev trace.FrameEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		rings[len(rings)-1].frames = append(rings[len(rings)-1].frames, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rings
}

// TestRecordingDoesNotPerturbResults: an observer never changes a result
// byte — neither an armed flight recorder around Scenario.Run or around
// every cell of a multicell replication, nor a DebugVoiceTx hook on a
// hand-driven frame loop, which must still see the transmissions it
// exists to observe.
func TestRecordingDoesNotPerturbResults(t *testing.T) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = 25
	sc.WarmupSec, sc.DurationSec = 0.3, 1
	mp := multicell.DefaultParams()
	mp.NumVoice, mp.NumData = 24, 4
	mp.WarmupSec, mp.DurationSec = 0.3, 1
	plain, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mPlain, err := multicell.Run(context.Background(), mp)
	if err != nil {
		t.Fatal(err)
	}
	trace.ArmFlight(32, filepath.Join(t.TempDir(), "flight.jsonl"))
	defer trace.ArmFlight(0, "")
	armed, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if armed != plain {
		t.Fatal("an armed flight recorder changed Scenario.Run's result")
	}
	mArmed, err := multicell.Run(context.Background(), mp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mArmed, mPlain) {
		t.Fatal("armed flight recorders changed multicell.Run's result")
	}

	frameLoop := func(observe bool) (res mac.Result, seen int) {
		sys, proto := buildCell(t, 25)
		if observe {
			sys.DebugVoiceTx = func(*mac.Station, phy.Mode, float64, sim.Time, int, int) { seen++ }
		}
		runFrames(sys, proto, 2000)
		return sys.M.Result(proto.Name(), sys.Cfg.Geometry.FrameSymbols), seen
	}
	want, _ := frameLoop(false)
	got, seen := frameLoop(true)
	if seen == 0 {
		t.Fatal("DebugVoiceTx saw no voice transmissions in 2000 frames of a 25-talker cell")
	}
	if got != want {
		t.Fatal("a DebugVoiceTx observer changed the frame loop's result")
	}
}
