// Command jaal-rules inspects rule translation: it parses a Snort-style
// rules file and prints, for each rule, the question vector the
// inference engine will match against summaries — the operator-facing
// view of §5.2's translator.
//
// Usage:
//
//	jaal-rules [-home 10.0.0.0/8] [-file rules.txt] [-taud 0.05]
//	jaal-rules gen [-n 10000] [-seed 1] [-base-sid 3000000] [-o rules.txt]
//
// Without -file, the built-in attack library is shown. The gen
// subcommand emits a seeded synthetic Snort-subset library (ISSUE 6's
// 10k-rule scale workload); every emitted line re-parses and
// round-trips through the canonical writer.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"sort"

	"repro/internal/packet"
	"repro/internal/rules"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		runGen(os.Args[2:])
		return
	}
	home := flag.String("home", "10.0.0.0/8", "HOME_NET prefix")
	file := flag.String("file", "", "rules file (empty = built-in attack library)")
	tauD := flag.Float64("taud", 0.05, "default distance threshold τ_d")
	flag.Parse()

	prefix, err := netip.ParsePrefix(*home)
	if err != nil {
		log.Fatalf("jaal-rules: bad -home: %v", err)
	}
	env := rules.NewEnvironment()
	env.Set("HOME_NET", prefix)
	cfg := rules.TranslateConfig{DefaultDistanceThreshold: *tauD, VarianceThreshold: 0.003}

	if *file == "" {
		qs, err := rules.LibraryQuestions(env, cfg)
		if err != nil {
			log.Fatalf("jaal-rules: %v", err)
		}
		ids := make([]string, 0, len(qs))
		for id := range qs {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			printQuestion(id, qs[rules.AttackID(id)])
		}
		return
	}

	f, err := os.Open(*file)
	if err != nil {
		log.Fatalf("jaal-rules: %v", err)
	}
	defer f.Close()
	rs, err := rules.ParseAll(f)
	if err != nil {
		log.Fatalf("jaal-rules: %v", err)
	}
	for _, r := range rs {
		q, err := rules.Translate(r, env, cfg)
		if err != nil {
			log.Printf("sid %d: %v", r.SID, err)
			continue
		}
		printQuestion(fmt.Sprintf("sid %d", r.SID), q)
	}
}

// runGen implements `jaal-rules gen`: write a seeded synthetic library
// to -o (stdout by default).
func runGen(args []string) {
	fs := flag.NewFlagSet("jaal-rules gen", flag.ExitOnError)
	n := fs.Int("n", 10000, "number of rules to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	baseSID := fs.Int("base-sid", 3000000, "first SID to assign")
	out := fs.String("o", "", "output file (empty = stdout)")
	fs.Parse(args)

	text := rules.GenerateText(rules.GenConfig{Rules: *n, Seed: *seed, BaseSID: *baseSID})
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		log.Fatalf("jaal-rules gen: %v", err)
	}
}

func printQuestion(label string, q *rules.Question) {
	fmt.Printf("%s: %q\n", label, q.Rule.Msg)
	fmt.Printf("  τ_d=%.5g  τ_c=%d", q.DistanceThreshold, q.CountThreshold)
	if q.TrackBy >= 0 {
		fmt.Printf("  tracked by %s", packet.FieldIndex(q.TrackBy))
	}
	if q.Variance != nil {
		fmt.Printf("  variance(%s) ≥ %g", q.Variance.Field, q.Variance.Threshold)
	}
	fmt.Println()
	for i, v := range q.Vector {
		if v != rules.Irrelevant {
			fmt.Printf("  q[%-12s] = %.6g  (raw %.6g)\n",
				packet.FieldIndex(i), v, packet.Denormalize(packet.FieldIndex(i), v))
		}
	}
	fmt.Println()
}
