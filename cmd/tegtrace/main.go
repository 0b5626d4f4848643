// Command tegtrace generates or inspects drive traces (the substitute
// for the paper's measured Hyundai Porter II log).
//
// The speed source is either the seeded stochastic generator (urban,
// highway, mixed), an embedded standard drive cycle (nedc, wltc, ftp75,
// hwfet, us06, delivery — prescribed regulatory speed schedules), or an
// external CSV speed log ingested with -schedule.
//
// Usage:
//
//	tegtrace                        # write an 800 s urban trace as CSV to stdout
//	tegtrace -duration 120 -seed 7  # shorter trace, different seed
//	tegtrace -cycle wltc            # full 1800 s WLTC Class 3 cycle
//	tegtrace -cycle nedc -duration 300  # first 300 s of the NEDC
//	tegtrace -schedule log.csv      # drive from a measured speed log
//	tegtrace -synth profile=highway,seed=9,grade=3,stops=1.5
//	                                # full generator family surface in one spec
//	tegtrace -summary               # print channel statistics instead
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tegrecon/internal/drive"
	"tegrecon/internal/obs"
	"tegrecon/internal/stats"
	"tegrecon/internal/termline"
	"tegrecon/internal/trace"
)

// progressWriter forwards CSV bytes while honouring cancellation and
// streaming a live row counter to stderr: every Write checks the
// context (so Ctrl-C aborts a long dump mid-stream with a clean error
// instead of a half-flushed exit) and counts newlines as written
// samples.
type progressWriter struct {
	ctx  context.Context
	w    io.Writer
	rows int
	line *termline.Printer
}

func (p *progressWriter) Write(b []byte) (int, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := p.w.Write(b)
	for _, c := range b[:n] {
		if c == '\n' {
			p.rows++
		}
	}
	p.line.Printf("wrote %d samples...", p.samples())
	return n, err
}

// samples discounts the CSV header row from the newline count.
func (p *progressWriter) samples() int {
	if p.rows > 0 {
		return p.rows - 1
	}
	return 0
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tegtrace: ")
	// Library code logs through slog; a CLI run wants that quiet unless
	// something is actually wrong. slog.SetDefault also reroutes the log
	// package into that Warn-level handler at Info level, which would
	// swallow every fatal reason, so the log package is pointed back at
	// stderr afterwards.
	slog.SetDefault(obs.MustLogger(os.Stderr, slog.LevelWarn, "text"))
	log.SetOutput(os.Stderr)
	// The -cycle usage text advertises exactly the registered stochastic
	// profiles and standard cycles, so a new registry entry in either
	// shows up here without a CLI edit.
	cycleUsage := "speed profile: a stochastic profile (" +
		strings.Join(drive.ProfileNames(), ", ") + ") or a standard cycle (" +
		strings.Join(drive.CycleNames(), ", ") + ")"
	var (
		duration  = flag.Float64("duration", 800, "trace duration (s); for standard cycles, caps the schedule (0 = full cycle)")
		dt        = flag.Float64("dt", 0.5, "sample period (s)")
		seed      = flag.Int64("seed", 42, "random seed (stochastic profiles only)")
		ambient   = flag.Float64("ambient", 25, "ambient temperature (°C)")
		coldStart = flag.Bool("cold", false, "start with a cold engine")
		summary   = flag.Bool("summary", false, "print per-channel statistics instead of CSV")
		cycle     = flag.String("cycle", "urban", cycleUsage)
		schedule  = flag.String("schedule", "", "CSV speed log to drive from (overrides -cycle)")
		speedChan = flag.String("speed-channel", "", "channel name of the speed series in -schedule (default "+drive.ChanSpeed+")")
		synthSpec = flag.String("synth", "", drive.SynthSpecUsage()+"; subsumes the individual generator flags")
	)
	flag.Parse()

	// -synth is the generator's whole surface in one spec; combining it
	// with the flags it subsumes would leave two sources of truth for
	// the same knob, so refuse rather than pick one silently.
	if *synthSpec != "" {
		for _, name := range []string{"duration", "dt", "seed", "ambient", "cold", "cycle", "schedule"} {
			overlap := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == name {
					overlap = true
				}
			})
			if overlap {
				log.Fatalf("-synth carries the generator configuration and cannot be combined with -%s", name)
			}
		}
	}

	// SIGINT/SIGTERM cancel the context; the CSV writer checks it every
	// write, so a long dump stops promptly with a clean message.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A plain -cycle wltc should run the cycle's full published length;
	// only an explicit -duration truncates it.
	durationSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})

	cfg := drive.DefaultSynthConfig()
	cfg.Duration = *duration
	cfg.DT = *dt
	cfg.Seed = *seed
	cfg.AmbientC = *ambient
	cfg.WarmStart = !*coldStart

	var tr *trace.Trace
	var err error
	// Stochastic profiles come from the profile registry (ProfileByName
	// is case-insensitive, like CycleByName for standard cycles).
	profile, perr := drive.ProfileByName(*cycle)
	isStochastic := perr == nil
	switch {
	case *synthSpec != "":
		cfg, serr := drive.ParseSynthSpec(*synthSpec)
		if serr != nil {
			log.Fatal(serr)
		}
		tr, err = drive.Synthesize(cfg)
	case *schedule != "":
		f, ferr := os.Open(*schedule)
		if ferr != nil {
			log.Fatal(ferr)
		}
		sched, serr := drive.ReadSchedule(f, *speedChan)
		f.Close()
		if serr != nil {
			log.Fatal(serr)
		}
		if !durationSet {
			cfg.Duration = 0 // full schedule
		}
		tr, err = drive.FromSpeedSchedule(cfg, sched)
	case isStochastic:
		cfg.Cycle = profile
		tr, err = drive.Synthesize(cfg)
	default:
		c, cerr := drive.CycleByName(*cycle)
		if cerr != nil {
			log.Fatalf("%v; or a stochastic profile: %s", cerr, strings.Join(drive.ProfileNames(), ", "))
		}
		if !durationSet {
			cfg.Duration = 0 // full published schedule
		}
		tr, err = c.Synthesize(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	if !*summary {
		pw := &progressWriter{ctx: ctx, w: os.Stdout, line: termline.New()}
		err := tr.WriteCSV(pw)
		pw.line.Clear()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatalf("interrupted after writing %d samples: %v", pw.samples(), err)
			}
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("%d samples over %.0f s\n", tr.Len(), tr.Duration())
	for _, ch := range tr.Channels {
		col, _ := tr.Column(ch)
		s, err := stats.Summarize(col)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s mean %8.3f  std %7.3f  min %8.3f  max %8.3f\n",
			ch, s.Mean, s.Std, s.Min, s.Max)
	}
}
