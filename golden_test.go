// Golden byte-identity suite for the structure-of-arrays channel plane.
//
// The SoA refactor of internal/channel promises that every observable
// number — each fading sample, each protocol metric, each multicell
// aggregate — is byte-identical to the original scalar-object
// implementation. This file pins that contract: testdata/golden_results.json
// was recorded by running `go test -run TestGolden -update-golden` against
// the pre-refactor scalar reference, and every subsequent run must
// reproduce the recorded Float64 bit patterns exactly.
//
// Regenerating the file against a changed implementation is only legitimate
// when a deliberate model change (not a performance refactor) alters the
// sample paths; the commit doing so must say why.
package charisma

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/rng"
	"charisma/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_results.json from the current implementation")

const goldenPath = "testdata/golden_results.json"

// goldenLines produces the full observation list: label=value pairs where
// every float is rendered as its IEEE-754 bit pattern, so comparison is
// bit-exact and immune to formatting.
func goldenLines(t testing.TB) []string {
	var out []string
	emitF := func(label string, v float64) {
		out = append(out, fmt.Sprintf("%s=0x%016x", label, math.Float64bits(v)))
	}
	emitU := func(label string, v uint64) {
		out = append(out, fmt.Sprintf("%s=%d", label, v))
	}

	const frameDur = 800 * sim.Time(1)

	// --- single fading process: amplitudes, components, the amplitude one
	// step back (fading/prevAmp, taken before the 200th Advance) ----------
	f := channel.NewFading(channel.DefaultParams(), rng.Derive(1, "golden"))
	var prevAmp float64
	for i := 1; i <= 200; i++ {
		prevAmp = f.Amplitude()
		f.Advance(frameDur)
		if i%20 == 0 {
			emitF(fmt.Sprintf("fading/amp@%d", i), f.Amplitude())
		}
	}
	emitF("fading/shortTerm", f.ShortTerm())
	emitF("fading/longTerm", f.LongTerm())
	emitF("fading/longTermDB", f.LongTermDB())
	emitF("fading/gain", f.Gain())
	emitF("fading/prevAmp", prevAmp)

	// slabUsers puts one user per speed on one slab, user u on the stream
	// (seed, "chan", u); a speed of 0 keeps the default parameters.
	// advanceAll steps every user in user order.
	slabUsers := func(seed int64, speeds []float64) []*channel.Fading {
		slab := channel.NewSlab()
		users := make([]*channel.Fading, len(speeds))
		for u, v := range speeds {
			p := channel.DefaultParams()
			if v > 0 {
				p.SpeedKmh, p.DopplerHz = v, 0
			}
			users[u] = slab.New(p, rng.DeriveIndexed(seed, "chan", u))
		}
		return users
	}
	advanceAll := func(users []*channel.Fading) {
		for _, f := range users {
			f.Advance(frameDur)
		}
	}

	// --- bank: interleaved full advances and per-user queries -------------
	bank := slabUsers(42, make([]float64, 16))
	for i := 0; i < 50; i++ {
		advanceAll(bank)
		if i == 24 {
			for u := 0; u < len(bank); u += 5 {
				emitF(fmt.Sprintf("bank/mid/u%d", u), bank[u].Amplitude())
			}
		}
	}
	for u, f := range bank {
		emitF(fmt.Sprintf("bank/end/u%d", u), f.Amplitude())
	}

	// --- mixed-speed users: several coefficient classes -------------------
	sb := slabUsers(7, []float64{10, 30, 50, 80, 120, 50, 10, 80})
	for i := 0; i < 40; i++ {
		advanceAll(sb)
	}
	for u, f := range sb {
		emitF(fmt.Sprintf("speeds/u%d", u), f.Amplitude())
	}

	// --- per-user catch-up paths mirror the mac lazy replay ---------------
	// The same user of two same-seed populations, one advanced step by
	// step and one in a single deferred batch: both orders must land on
	// the bits the pre-refactor stepwise schedule recorded (the lazy-replay
	// contract). The golden entry for replay/batched was recorded stepwise
	// — the only advancement the scalar reference had — so it directly
	// pins the batched AdvanceSteps path against the pre-refactor sample
	// path.
	lazyA := slabUsers(9, make([]float64, 2))
	for i := 0; i < 33; i++ {
		lazyA[0].Advance(frameDur)
	}
	emitF("replay/stepwise", lazyA[0].Amplitude())
	lazyB := slabUsers(9, make([]float64, 2))
	lazyB[0].AdvanceSteps(frameDur, 33)
	emitF("replay/batched", lazyB[0].Amplitude())

	// --- all six protocols, common seed -----------------------------------
	emitResult := func(prefix string, r mac.Result) {
		emitF(prefix+"/frames", r.Frames)
		emitU(prefix+"/voiceGen", r.VoiceGenerated)
		emitU(prefix+"/voiceDrop", r.VoiceDropped)
		emitU(prefix+"/voiceErr", r.VoiceErrored)
		emitU(prefix+"/voiceOK", r.VoiceDelivered)
		emitU(prefix+"/dataGen", r.DataGenerated)
		emitU(prefix+"/dataOK", r.DataDelivered)
		emitU(prefix+"/dataErr", r.DataErrored)
		emitU(prefix+"/reqAtt", r.ReqAttempts)
		emitU(prefix+"/reqColl", r.ReqCollisions)
		emitU(prefix+"/reqSucc", r.ReqSuccesses)
		emitU(prefix+"/csiPolls", r.CSIPolls)
		emitF(prefix+"/ploss", r.VoiceLossRate)
		emitF(prefix+"/gamma", r.DataThroughputPerFrame)
		emitF(prefix+"/delay", r.MeanDataDelaySec)
		emitF(prefix+"/coll", r.CollisionRate)
		emitF(prefix+"/util", r.InfoUtilization)
	}
	scenario := func(proto string, queue bool) core.Scenario {
		sc := core.DefaultScenario(proto)
		sc.NumVoice, sc.NumData = 30, 5
		sc.UseQueue = queue
		sc.WarmupSec, sc.DurationSec = 0.25, 1
		return sc
	}
	for _, p := range core.Protocols() {
		r, err := scenario(p, false).Run()
		if err != nil {
			t.Fatalf("protocol %s: %v", p, err)
		}
		emitResult("proto/"+p, r)
	}
	// Queue variant (selection diversity pool) for the flagship protocol.
	rq, err := scenario(core.ProtoCharisma, true).Run()
	if err != nil {
		t.Fatalf("charisma+queue: %v", err)
	}
	emitResult("proto/charisma+queue", rq)

	// Mixed per-station speeds through the full platform (§5.3.3 path).
	scSpeeds := scenario(core.ProtoCharisma, false)
	scSpeeds.SpeedsKmh = []float64{10, 80, 50, 120, 30, 50, 10, 80, 50, 50,
		10, 80, 50, 120, 30, 50, 10, 80, 50, 50,
		10, 80, 50, 120, 30, 50, 10, 80, 50, 50, 50, 50, 50, 50, 50}
	rs, err := scSpeeds.Run()
	if err != nil {
		t.Fatalf("charisma+speeds: %v", err)
	}
	emitResult("proto/charisma+speeds", rs)

	// --- multicell deployment ---------------------------------------------
	mp := multicell.DefaultParams()
	mp.Cells = 2
	mp.NumVoice, mp.NumData = 20, 4
	mp.Workers = 1
	mp.WarmupSec, mp.DurationSec = 0.25, 1
	mr, err := multicell.Run(mp)
	if err != nil {
		t.Fatalf("multicell: %v", err)
	}
	emitResult("multicell", mr.Result)
	emitU("multicell/handoffs", mr.Handoffs)
	for c, per := range mr.PerCell {
		emitF(fmt.Sprintf("multicell/cell%d/ploss", c), per.VoiceLossRate)
	}

	// --- heavy mixed load: data queue saturates ---------------------------
	// Nv=80 voice stations against Nd=30 data stations behind a tight
	// 8-entry request queue push arrivals past the service rate: the queue
	// fills and rejects, and the ARQ backlog carries frame to frame —
	// saturation branches the lighter mixes above never reach. Appended
	// after the original observations so the earlier golden lines keep
	// their indices.
	scHeavy := scenario(core.ProtoCharisma, true)
	scHeavy.NumVoice, scHeavy.NumData = 80, 30
	scHeavy.MAC.QueueCap = 8
	rh, err := scHeavy.Run()
	if err != nil {
		t.Fatalf("charisma+heavy: %v", err)
	}
	emitResult("proto/charisma+heavy", rh)
	emitU("proto/charisma+heavy/queueRejects", rh.QueueRejects)
	emitF("proto/charisma+heavy/maxDelay", rh.MaxDataDelaySec)

	return out
}

// TestGoldenByteIdentity compares every recorded observation bit-for-bit.
func TestGoldenByteIdentity(t *testing.T) {
	got := goldenLines(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d observations to %s", len(got), goldenPath)
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden on the reference implementation): %v", err)
	}
	var want []string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("observation count drifted: got %d, golden has %d", len(got), len(want))
	}
	mismatches := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("byte-identity broken: got %s, want %s", got[i], want[i])
			if mismatches++; mismatches > 20 {
				t.Fatal("too many mismatches; aborting")
			}
		}
	}
}
