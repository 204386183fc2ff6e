// Command fading-trace dumps raw channel and PHY model data for plotting:
// the Fig. 5 fading sample as CSV, or the Fig. 7 ABICM curves as CSV.
//
// Usage:
//
//	fading-trace -what fading -seconds 2 -speed 50 > fading.csv
//	fading-trace -what abicm > abicm.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/experiments"
	"charisma/internal/mathx"
	"charisma/internal/sim"
	"charisma/internal/trace"
)

func main() {
	var (
		what    = flag.String("what", "fading", "fading (Fig. 5) or abicm (Fig. 7)")
		seconds = flag.Float64("seconds", 2, "trace length in simulated seconds")
		speed   = flag.Float64("speed", 50, "mobile speed in km/h")
		seed    = flag.Int64("seed", 1, "random seed")
		stepMs  = flag.Float64("step", 2.5, "sample period in ms (default: one frame)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the trace to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if err := checkFlags(*seconds, *speed, *stepMs); err != nil {
		fmt.Fprintln(os.Stderr, "fading-trace:", err)
		os.Exit(1)
	}

	stopProf, err := trace.StartProfile(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fading-trace:", err)
		os.Exit(1)
	}
	defer stopProf()

	switch *what {
	case "fading":
		p := channel.DefaultParams()
		p.SpeedKmh = *speed
		dt := sim.FromMilliseconds(*stepMs)
		n := int(sim.FromSeconds(*seconds) / dt)
		fmt.Println("t_ms,amp_db,shadow_db")
		for pt := range channel.Trace(p, *seed, dt, n) {
			fmt.Printf("%.3f,%.3f,%.3f\n", pt.T.Milliseconds(), pt.AmpDB, pt.ShadowDB)
		}
	case "abicm":
		fmt.Println("csi_amp,snr_db,mode,eta,ber,fixed_ber,outage")
		for _, pt := range experiments.ABICMCurves(361) {
			fmt.Printf("%.5f,%.2f,%d,%.1f,%.4e,%.4e,%v\n",
				pt.CSIAmp, pt.SNRdB, pt.Mode, pt.Eta, pt.BER, pt.FixedBER, pt.InOutage)
		}
	default:
		fmt.Fprintf(os.Stderr, "fading-trace: unknown -what %q\n", *what)
		stopProf() // os.Exit skips the defer
		os.Exit(1)
	}
}

// checkFlags rejects, as a *core.ValidationError naming the flag, a
// length, speed or sample period the trace cannot be drawn at: negative,
// not a number or infinite, a period shorter than one clock tick, a
// length or period past the clock, or a speed the channel block refuses.
// A zero -seconds is a header without samples.
func checkFlags(seconds, speed, stepMs float64) error {
	if err := experiments.CheckFlags(
		mathx.Field{Name: "-seconds", Value: seconds},
		mathx.Field{Name: "-speed", Value: speed},
		mathx.Field{Name: "-step", Value: stepMs},
	); err != nil {
		return err
	}
	if seconds*float64(sim.Second) >= 1<<63 {
		return &core.ValidationError{Field: "-seconds", Reason: fmt.Sprintf("%v s overflows the simulation clock", seconds)}
	}
	if ticks := stepMs * float64(sim.Millisecond); ticks < 1 || ticks >= 1<<63 {
		return &core.ValidationError{Field: "-step", Reason: fmt.Sprintf("%v ms is not a sample period of one clock tick or more", stepMs)}
	}
	p := channel.DefaultParams()
	p.SpeedKmh = speed
	if err := p.Validate(); err != nil {
		return &core.ValidationError{Field: "-speed", Reason: err.Error()}
	}
	return nil
}
