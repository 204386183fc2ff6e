package multicell

import (
	"context"
	"fmt"
	"testing"

	"charisma/internal/core"
	"charisma/internal/run"
)

// arenaShapes is a sequence of deployments of different shapes: 2 and 3
// cells, populations up and down, every fixed-frame protocol, the queue
// on and off, handoff on and off, and CHARISMA's λv changed between two
// otherwise equal shapes.
func arenaShapes() []Params {
	mk := func(cells int, proto string, nv, nd int, queue, noHandoff bool) Params {
		p := DefaultParams()
		p.Cells, p.Protocol = cells, proto
		p.NumVoice, p.NumData = nv, nd
		p.UseQueue, p.DisableHandoff = queue, noHandoff
		p.DecisionPeriodFrames = 20
		p.WarmupSec, p.DurationSec = 0.3, 1.2
		p.Workers = 1
		return p
	}
	lambda := mk(2, core.ProtoCharisma, 24, 3, true, false)
	lambda.MAC.Charisma.LambdaV = 0.5
	return []Params{
		mk(2, core.ProtoCharisma, 24, 3, true, false),
		mk(3, core.ProtoDTDMAVR, 30, 6, false, false),
		lambda,
		mk(2, core.ProtoDTDMAFR, 12, 2, true, true),
		mk(3, core.ProtoDRMA, 18, 9, true, false),
		mk(2, core.ProtoRAMA, 36, 0, false, false),
		mk(3, core.ProtoCharisma, 8, 4, false, true),
		mk(2, core.ProtoCharisma, 24, 3, true, false),
	}
}

// sameResult reports the first field where two deployment results
// differ: the aggregate, the handoff count, or a cell's result.
func sameResult(got, want Result) error {
	if got.Result != want.Result {
		return fmt.Errorf("aggregate %+v, want %+v", got.Result, want.Result)
	}
	if got.Handoffs != want.Handoffs {
		return fmt.Errorf("%d handoffs, want %d", got.Handoffs, want.Handoffs)
	}
	if len(got.PerCell) != len(want.PerCell) {
		return fmt.Errorf("%d cells, want %d", len(got.PerCell), len(want.PerCell))
	}
	for c := range got.PerCell {
		if got.PerCell[c] != want.PerCell[c] {
			return fmt.Errorf("cell %d %+v, want %+v", c, got.PerCell[c], want.PerCell[c])
		}
	}
	return nil
}

// runFresh runs p on a deployment New built for it alone.
func runFresh(t *testing.T, p Params) Result {
	t.Helper()
	d, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return r
}

// TestArenaMatchesFresh pins the multicell arena's contract: a deployment
// rebuilt into the memory of earlier ones — other shapes, protocols,
// populations and seeds — runs exactly as a new one, field for field,
// handoffs and every cell included, both on one reused deployment and
// through Run, which rebuilds a spare one.
func TestArenaMatchesFresh(t *testing.T) {
	shapes := arenaShapes()
	reused := new(Deployment)
	for round := 0; round < 2; round++ {
		for i, p := range shapes {
			p.Seed = int64(100*round + i + 1)
			want := runFresh(t, p)
			if err := reused.build(p); err != nil {
				t.Fatalf("round %d shape %d: build: %v", round, i, err)
			}
			got, err := reused.Run(context.Background())
			if err != nil {
				t.Fatalf("round %d shape %d: run: %v", round, i, err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("round %d shape %d (%s, %d cells) on a reused deployment: %v", round, i, p.Protocol, p.Cells, err)
			}
			spared, err := Run(context.Background(), p)
			if err != nil {
				t.Fatalf("round %d shape %d: Run: %v", round, i, err)
			}
			if err := sameResult(spared, want); err != nil {
				t.Fatalf("round %d shape %d (%s, %d cells) through Run: %v", round, i, p.Protocol, p.Cells, err)
			}
		}
	}
}

// TestRunResultOwnsItsMemory: the one slice in a result Run returns,
// PerCell, shares nothing with the deployment Run keeps, so later
// replications cannot change it.
func TestRunResultOwnsItsMemory(t *testing.T) {
	shapes := arenaShapes()
	first, err := Run(context.Background(), shapes[0])
	if err != nil {
		t.Fatal(err)
	}
	cells := append(first.PerCell[:0:0], first.PerCell...)
	for _, p := range shapes[1:] {
		if _, err := Run(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	for c := range cells {
		if first.PerCell[c] != cells[c] {
			t.Fatalf("a later Run changed cell %d of an earlier result", c)
		}
	}
}

// TestRunReplicatedMatchesSerial: replications run concurrently through
// Run, each advancing its cells on several workers, pool to exactly what
// the same replications give run one after another on new deployments.
func TestRunReplicatedMatchesSerial(t *testing.T) {
	const reps = 4
	for _, p := range arenaShapes()[:3] {
		p.Workers = 3
		got, err := RunReplicated(context.Background(), p, reps)
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]Result, reps)
		for i := range serial {
			pi := p
			pi.Seed = run.RepSeed(p.Seed, i)
			pi.Workers = 1
			serial[i] = runFresh(t, pi)
		}
		if err := sameResult(got, pool(serial)); err != nil {
			t.Fatalf("%s, %d cells: %v", p.Protocol, p.Cells, err)
		}
	}
}

// multicellArenaAllocs is the most a warm multicell.Run may allocate per
// replication: the returned PerCell slice. Measured at exactly 1 for
// arenaShapes' first shape with Workers 1, the corpus generator's setting.
const multicellArenaAllocs = 1

// TestMulticellArenaSteadyStateAllocs gates the multicell arena path,
// against thousands of mallocs for a new deployment (a 4.9 KB stream per
// link and per user, a station per link, systems, slabs, modems and
// protocols): after one warm replication of each of ten seeds of a shape,
// running those replications again allocates at most
// multicellArenaAllocs each — build, frames and result. (A seed not seen
// before can still grow a timer-wheel bucket or a frame-path buffer past
// its high-water mark.) The fewest of three batches is taken, so a
// runtime-internal malloc (a new thread, timer-heap growth) cannot fail
// it.
func TestMulticellArenaSteadyStateAllocs(t *testing.T) {
	p := arenaShapes()[0]
	batch := func() {
		for seed := int64(1); seed <= 10; seed++ {
			p.Seed = seed
			if _, err := Run(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch()
	allocs := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch))
	t.Logf("warm multicell.Run: %.0f mallocs in 10 replications", allocs)
	if allocs > 10*multicellArenaAllocs {
		t.Errorf("warm multicell.Run: %.0f mallocs in 10 replications, want at most %d", allocs, 10*multicellArenaAllocs)
	}
}
