// Command jaal-experiments regenerates the tables and figures of the
// paper's evaluation (§8). Each subcommand prints the corresponding
// table/series as aligned text.
//
// Usage:
//
//	jaal-experiments [-quick] [-stats] [-topology 1] <experiment>
//
// where <experiment> is one of: fig4 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 table1 headline varest adaptive multiwindow encoding coverage
// sketchcost batchsize overload scoreboard all. ("adaptive" is the
// evasive-attacker ablation; "overload" is the sketch-assisted
// load-shedding grid at 1×/5×/10× offered load, excluded from "all"
// because it has its own warn-only CI job; "scoreboard" scores the
// labelled scenario corpus and takes its own flags, see scoreboard.go.)
//
// -quick reduces trial counts for a fast smoke run; the default scale
// mirrors the paper's averaging (15 runs per point). -stats prints the
// observability summary table to stderr after the run. -topology picks
// the topology fig7 and fig9 run on: 1 (Abovenet-like) or 2
// (Exodus-like).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/topology"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale for a fast smoke pass")
	stats := flag.Bool("stats", false, "collect runtime metrics and print the observability summary table to stderr")
	topoNum := flag.Int("topology", 1, "topology for fig7/fig9: 1 (Abovenet-like) or 2 (Exodus-like)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jaal-experiments [-quick] <fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table1|headline|varest|adaptive|multiwindow|encoding|coverage|sketchcost|batchsize|overload|scoreboard|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() >= 1 && flag.Arg(0) == "scoreboard" {
		if err := runScoreboard(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "jaal-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	sc := experiments.FullScale()
	if *quick {
		sc = experiments.QuickScale()
	}

	var top *topology.Topology
	switch *topoNum {
	case 1:
		top = topology.Abovenet()
	case 2:
		top = topology.Exodus()
	default:
		fmt.Fprintf(os.Stderr, "jaal-experiments: -topology must be 1 or 2\n")
		os.Exit(2)
	}

	// Metrics are a write-only side channel: -stats never changes the
	// tables printed on stdout, only appends the summary on stderr.
	obs.SetEnabled(*stats)

	if err := run(flag.Arg(0), sc, *quick, top); err != nil {
		fmt.Fprintf(os.Stderr, "jaal-experiments: %v\n", err)
		os.Exit(1)
	}
	if *stats {
		obs.WriteTable(os.Stderr)
	}
}

func run(name string, sc experiments.Scale, quick bool, top *topology.Topology) error {
	switch name {
	case "fig4":
		_, tbl, err := experiments.Fig4VaryK(sc)
		return render(tbl, err)
	case "fig5":
		_, tbl, err := experiments.Fig5VaryRank(sc)
		return render(tbl, err)
	case "fig6":
		_, tbl, err := experiments.Fig6Feedback(sc)
		return render(tbl, err)
	case "fig7":
		placements := 25
		if quick {
			placements = 5
		}
		_, tbl, err := experiments.Fig7Replication(placements, top)
		return render(tbl, err)
	case "fig8":
		_, _, tbl, err := experiments.Fig8Mirai()
		return render(tbl, err)
	case "fig9":
		flows := 4000
		if quick {
			flows = 1000
		}
		_, tbl, err := experiments.Fig9FlowAssign(flows, top)
		return render(tbl, err)
	case "fig10":
		_, tbl, err := experiments.Fig10Spectrum()
		return render(tbl, err)
	case "fig11":
		_, tbl, err := experiments.Fig11Compression()
		return render(tbl, err)
	case "table1":
		_, tbl, err := experiments.Table1Reservoir(sc)
		return render(tbl, err)
	case "headline":
		_, tbl, err := experiments.Headline(sc)
		return render(tbl, err)
	case "varest":
		tbl, err := experiments.VarianceEstimation()
		return render(tbl, err)
	case "adaptive":
		trials := 15
		if quick {
			trials = 5
		}
		_, tbl, err := experiments.AdaptiveAttacker(trials)
		return render(tbl, err)
	case "multiwindow":
		trials := 15
		if quick {
			trials = 5
		}
		_, tbl, err := experiments.MultiWindowCorrelation(trials)
		return render(tbl, err)
	case "encoding":
		_, tbl, err := experiments.SplitVsCombined()
		return render(tbl, err)
	case "coverage":
		_, tbl, err := experiments.MonitorCoverage(500)
		return render(tbl, err)
	case "sketchcost":
		tbl, err := experiments.SketchCost()
		return render(tbl, err)
	case "batchsize":
		trials := 15
		if quick {
			trials = 5
		}
		_, tbl, err := experiments.BatchSizeSweep(trials)
		return render(tbl, err)
	case "overload":
		_, tbl, err := experiments.Overload(quick)
		return render(tbl, err)
	case "all":
		for _, sub := range []string{
			"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig11", "table1", "headline", "varest",
			"adaptive", "multiwindow", "encoding",
			"coverage", "sketchcost", "batchsize",
		} {
			if err := run(sub, sc, quick, top); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func render(tbl *experiments.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	return nil
}
