// Command charisma-scen manages JSONL scenario corpora: it generates
// seeded corpora, expands a file into its canonical sweep points, and
// checks every point against the simulator's invariant suite.
//
// Usage:
//
//	charisma-scen gen -seed 20260808 -n 20 -out corpus.jsonl
//	charisma-scen gen -seed 7 -n 50 -max-cells 4 -multicell-frac 0.3
//	charisma-scen expand corpus.jsonl      # canonical specs + hashes
//	charisma-scen check corpus.jsonl       # invariant suite, exit 1 on any violation
//
// `gen` is deterministic: entry i depends only on (seed, i), so a corpus
// can be regenerated or extended without disturbing existing entries.
// `check` runs each expanded point through internal/invariant (metric
// bounds, determinism, packet-conservation laws) and prints one line per
// point; violations carry the spec hash and seed for a one-line repro.
package main

import (
	"flag"
	"fmt"
	"os"

	"charisma/internal/grid"
	"charisma/internal/invariant"
	"charisma/internal/scengen"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  charisma-scen gen    [-seed N] [-n N] [-max-voice N] [-max-data N] [-max-cells N] [-multicell-frac F] [-out FILE]
  charisma-scen expand FILE.jsonl
  charisma-scen check  FILE.jsonl`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "expand":
		err = runExpand(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "charisma-scen:", err)
		os.Exit(1)
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "corpus seed (entry i depends only on seed and i)")
		n        = fs.Int("n", 20, "number of corpus entries")
		maxVoice = fs.Int("max-voice", 0, "cap on voice stations per entry (0 = default 40)")
		maxData  = fs.Int("max-data", 0, "cap on data stations per entry (0 = default 12)")
		maxCells = fs.Int("max-cells", 0, "enable multi-cell entries with up to this many cells (< 2 disables)")
		mcFrac   = fs.Float64("multicell-frac", 0, "fraction of entries that are deployments (0 = default 0.2)")
		out      = fs.String("out", "", "output file (empty = stdout)")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("gen takes no positional arguments")
	}

	cfg := scengen.Config{
		Seed:          *seed,
		Count:         *n,
		MaxVoice:      *maxVoice,
		MaxData:       *maxData,
		MaxCells:      *maxCells,
		MulticellFrac: *mcFrac,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	pts := scengen.Generate(cfg)

	if *out == "" {
		return grid.WriteScenarioFile(os.Stdout, pts)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = grid.WriteScenarioFile(f, pts)
	// A failed close can lose buffered bytes, so it fails the write too.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "charisma-scen: wrote %d entries (seed %d) to %s\n", len(pts), *seed, *out)
	return nil
}

func runExpand(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("expand takes exactly one scenario file")
	}
	pts, err := grid.LoadScenarioPath(fs.Arg(0))
	if err != nil {
		return err
	}
	for i, pt := range pts {
		hash, err := pt.Spec.Hash()
		if err != nil {
			return err
		}
		canon, err := pt.Spec.Encode()
		if err != nil {
			return err
		}
		fmt.Printf("# point %d  hash=%s  reps=%d\n%s\n", i, hash, pt.Replications, canon)
	}
	return nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("check takes exactly one scenario file")
	}
	pts, err := grid.LoadScenarioPath(fs.Arg(0))
	if err != nil {
		return err
	}
	violations := 0
	for i, pt := range pts {
		rep, err := invariant.Check(pt.Spec)
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		if rep.OK() {
			fmt.Printf("point %-4d %s ok\n", i, rep.Hash[:12])
			continue
		}
		violations += len(rep.Violations)
		for _, v := range rep.Violations {
			fmt.Printf("point %-4d %s VIOLATION %s\n", i, rep.Hash[:12], v)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violation(s) across %d points", violations, len(pts))
	}
	fmt.Printf("checked %d points: all invariants hold\n", len(pts))
	return nil
}
