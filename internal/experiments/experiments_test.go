package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mathx"
	"charisma/internal/stats"
)

func tinyRC() RunConfig {
	return RunConfig{Seed: 1, WarmupSec: 0.5, DurationSec: 1.5}
}

// TestCheckFlags: zero (the default), positive values and a fraction of
// exactly 1 pass; a negative or NaN value, or a fraction above 1, is a
// *core.ValidationError naming the first bad flag.
func TestCheckFlags(t *testing.T) {
	if err := CheckFlags(
		mathx.Field{Name: "-reps", Value: 0},
		mathx.Field{Name: "-precision", Value: 0.05},
		mathx.Field{Name: "-duration", Value: 1e308},
		mathx.Field{Name: "-audit-frac", Value: 1},
	); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for _, tc := range []struct {
		bad  mathx.Field
		want string
	}{
		{mathx.Field{Name: "-workers", Value: -1}, "negative or not a number"},
		{mathx.Field{Name: "-precision", Value: math.NaN()}, "negative or not a number"},
		{mathx.Field{Name: "-audit-frac", Value: math.NaN()}, "negative or not a number"},
		{mathx.Field{Name: "-audit-frac", Value: 1.5}, "above 1"},
		{mathx.Field{Name: "-duration", Value: math.Inf(1)}, "not finite"},
		{mathx.Field{Name: "-duration", Value: math.Inf(-1)}, "negative or not a number"},
		{mathx.Field{Name: "-precision", Value: math.Inf(1)}, "not finite"},
	} {
		err := CheckFlags(mathx.Field{Name: "-reps", Value: 2}, tc.bad, mathx.Field{Name: "-max-reps", Value: -3})
		var ve *core.ValidationError
		if !errors.As(err, &ve) || ve.Field != tc.bad.Name || !strings.Contains(ve.Reason, tc.want) {
			t.Errorf("%+v: err %v, want a *core.ValidationError for %s saying %q", tc.bad, err, tc.bad.Name, tc.want)
		}
	}
}

func TestPanelSpecsEnumerateAllEighteen(t *testing.T) {
	specs := PanelSpecs()
	if len(specs) != 18 {
		t.Fatalf("%d specs, want 18 (Figs. 11-13 x panels a-f)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate spec %s", s.ID)
		}
		seen[s.ID] = true
		if s.Figure != 11 && s.Figure != 12 && s.Figure != 13 {
			t.Fatalf("bad figure %d", s.Figure)
		}
	}
	for _, id := range []string{"fig11a", "fig11f", "fig12c", "fig13e"} {
		if !seen[id] {
			t.Fatalf("missing spec %s", id)
		}
	}
}

func TestVoiceLossPanelShape(t *testing.T) {
	rc := tinyRC()
	rc.Protocols = []string{core.ProtoCharisma, core.ProtoRAMA}
	p, err := VoiceLossPanel(context.Background(), "fig11a", 0, false, []int{10, 30}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 {
		t.Fatalf("%d series", len(p.Series))
	}
	for _, s := range p.Series {
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("loss %v out of range", y)
			}
		}
	}
	if !strings.Contains(p.Title, "Fig.11a") {
		t.Fatalf("title %q", p.Title)
	}
}

func TestDataPanelMetrics(t *testing.T) {
	rc := tinyRC()
	rc.Protocols = []string{core.ProtoCharisma}
	tp, err := DataPanel(context.Background(), "fig12a", MetricDataThroughput, 0, false, []int{5}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Series[0].Y[0] <= 0 {
		t.Fatal("no data throughput measured")
	}
	dp, err := DataPanel(context.Background(), "fig13a", MetricDataDelay, 0, false, []int{5}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Series[0].Y[0] < 0 {
		t.Fatal("negative delay")
	}
	if !strings.Contains(dp.Title, "Fig.13") {
		t.Fatalf("title %q", dp.Title)
	}
}

func TestRunPanelDispatch(t *testing.T) {
	rc := tinyRC()
	rc.Protocols = []string{core.ProtoRAMA}
	for _, spec := range []PanelSpec{
		{ID: "fig11a", Figure: 11},
		{ID: "fig12a", Figure: 12},
		{ID: "fig13a", Figure: 13},
	} {
		// Restrict sweeps through the per-figure defaults: patch via the
		// panel helpers directly for speed.
		var err error
		switch spec.Figure {
		case 11:
			_, err = VoiceLossPanel(context.Background(), spec.ID, 0, false, []int{10}, rc)
		case 12:
			_, err = DataPanel(context.Background(), spec.ID, MetricDataThroughput, 0, false, []int{3}, rc)
		case 13:
			_, err = DataPanel(context.Background(), spec.ID, MetricDataDelay, 0, false, []int{3}, rc)
		}
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
	}
	if _, err := RunPanel(context.Background(), PanelSpec{Figure: 9}, rc); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestCapacityExtraction(t *testing.T) {
	p := Panel{Series: []stats.Series{{Label: "x"}}}
	p.Series[0].Append(10, 0.001, 0)
	p.Series[0].Append(20, 0.02, 0)
	caps := Capacity(p, 0.01)
	if math.IsNaN(caps["x"]) {
		t.Fatal("no crossing found")
	}
	if caps["x"] < 10 || caps["x"] > 20 {
		t.Fatalf("capacity %v outside sweep", caps["x"])
	}
}

func TestFadingTraceLengthAndDeterminism(t *testing.T) {
	a := FadingTrace(1, 1.0)
	if len(a) != 400 {
		t.Fatalf("%d samples, want 400", len(a))
	}
	b := FadingTrace(1, 1.0)
	if a[123] != b[123] {
		t.Fatal("trace not deterministic")
	}
}

func TestABICMCurvesMonotoneStaircase(t *testing.T) {
	pts := ABICMCurves(100)
	if len(pts) != 100 {
		t.Fatalf("%d points", len(pts))
	}
	prev := -1.0
	for _, p := range pts {
		if p.Eta < prev {
			t.Fatal("staircase not monotone")
		}
		prev = p.Eta
		if p.BER < 0 || p.BER > 0.5 || p.FixedBER < 0 || p.FixedBER > 0.5 {
			t.Fatal("BER out of range")
		}
	}
	if !pts[0].InOutage {
		t.Fatal("lowest CSI not in outage")
	}
}

func TestSpeedSweepRuns(t *testing.T) {
	pts, err := SpeedSweep(context.Background(), 10, []float64{10, 80}, tinyRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].SpeedKmh != 10 || pts[1].SpeedKmh != 80 {
		t.Fatalf("speed points wrong: %+v", pts)
	}
}

func TestTable1HasReconstructionMarkers(t *testing.T) {
	rows := Table1()
	if len(rows) < 15 {
		t.Fatalf("table too short: %d rows", len(rows))
	}
	marked := false
	for _, r := range rows {
		if strings.Contains(r.Parameter, "*") {
			marked = true
		}
		if r.Parameter == "" || r.Value == "" {
			t.Fatal("empty table cell")
		}
	}
	if !marked {
		t.Fatal("reconstructed parameters not flagged")
	}
}

func TestRenderPanelDoesNotPanic(t *testing.T) {
	var sb strings.Builder
	p := Panel{ID: "t", Title: "test", XLabel: "x", YLabel: "y"}
	RenderPanel(&sb, p) // empty panel
	s := stats.Series{Label: "a"}
	s.Append(1, 0.1, 0)
	s.Append(2, 0.2, 0)
	p.Series = []stats.Series{s}
	RenderPanel(&sb, p)
	if !strings.Contains(sb.String(), "test") {
		t.Fatal("render lost the title")
	}
	RenderCapacity(&sb, p, 0.15)
	RenderTable1(&sb, Table1())
	RenderTrace(&sb, FadingTrace(1, 0.1), 4)
	RenderABICM(&sb, ABICMCurves(20), 3)
	RenderSpeed(&sb, []SpeedPoint{{SpeedKmh: 50, VoiceLoss: 0.01}})
	if sb.Len() == 0 {
		t.Fatal("nothing rendered")
	}
}

func TestRenderPlotHandlesFlatData(t *testing.T) {
	var sb strings.Builder
	s := stats.Series{Label: "flat"}
	s.Append(1, 0.5, 0)
	s.Append(2, 0.5, 0)
	RenderASCIIPlot(&sb, Panel{Series: []stats.Series{s}}, 20, 5)
	if sb.Len() == 0 {
		t.Fatal("flat data rendered nothing")
	}
	sb.Reset()
	z := stats.Series{Label: "zero"}
	z.Append(1, 0, 0)
	RenderASCIIPlot(&sb, Panel{Series: []stats.Series{z}}, 20, 5)
	if !strings.Contains(sb.String(), "no positive data") {
		t.Fatal("zero data not handled")
	}
}
