// Command jaal-pcap bridges Jaal and the standard capture ecosystem.
//
// Two modes:
//
//	jaal-pcap gen -out trace.pcap [-packets 10000] [-trace-seed 1]
//	              [-attack distributed_syn_flood]
//
// writes a synthetic Jaal workload as a standard .pcap file (raw IPv4
// link type, valid checksums) that tcpdump/Wireshark can open; and
//
//	jaal-pcap detect -in trace.pcap [-batch 1000] [-rank 12] [-k 200]
//	                 [-home 10.0.0.0/8] [-epoch 4000] [-stats]
//	                 [-trace] [-trace-out epochs.trace.json]
//
// replays a capture through a Jaal monitor+controller pair, printing
// per-epoch alerts — the closest thing to pointing Jaal at real traffic.
// -trace records one causal stage timeline per epoch; -trace-out writes
// them as a Chrome trace-event file Perfetto (ui.perfetto.dev) loads
// directly, one lane per monitor plus the controller. Tracing never
// changes the alert output.
//
// gen also writes a <out>.labels.json ground-truth sidecar (the attack
// injected and which packet indexes carry it); when detect finds the
// sidecar next to its input it reports per-epoch detection accuracy
// against the truth.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/trafficgen"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: jaal-pcap <gen|detect> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "detect":
		err = runDetect(os.Args[2:])
	default:
		err = fmt.Errorf("unknown mode %q", os.Args[1])
	}
	if err != nil {
		log.Fatalf("jaal-pcap: %v", err)
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "trace.pcap", "output capture path")
	packets := fs.Int("packets", 10000, "number of packets")
	seed := fs.Int64("trace-seed", 1, "background trace seed")
	attack := fs.String("attack", "", "attack to inject (empty = clean)")
	fs.Parse(args)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(*seed))
	var atk trafficgen.Attack
	if *attack != "" {
		atk, err = trafficgen.NewAttack(rules.AttackID(*attack), trafficgen.AttackConfig{Seed: *seed})
		if err != nil {
			return err
		}
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: *seed})

	labels := Labels{Attack: *attack}
	w := pcap.NewWriter(f, pcap.LinkTypeRaw, 0)
	// Virtual time: ~5000 packets per second of capture.
	for i := 0; i < *packets; i++ {
		lp := mix.Next()
		var wire []byte
		if lp.Header.Protocol == packet.ProtoUDP {
			wire, err = lp.Header.MarshalIPv4UDP(nil)
		} else {
			wire, err = lp.Header.MarshalIPv4TCP(nil)
		}
		if err != nil {
			return err
		}
		err = w.WritePacket(pcap.Packet{
			TimestampSec:  uint32(i / 5000),
			TimestampNsec: uint32(i%5000) * 200_000,
			Data:          wire,
		})
		if err != nil {
			return err
		}
		if lp.Label == trafficgen.LabelAttack {
			labels.AttackPackets = append(labels.AttackPackets, i)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d packets to %s\n", *packets, *out)

	if *attack != "" {
		lf, err := os.Create(*out + ".labels.json")
		if err != nil {
			return err
		}
		defer lf.Close()
		enc := json.NewEncoder(lf)
		if err := enc.Encode(labels); err != nil {
			return err
		}
		fmt.Printf("wrote ground truth (%d attack packets) to %s.labels.json\n",
			len(labels.AttackPackets), *out)
	}
	return nil
}

// Labels is the ground-truth sidecar format: the injected attack and the
// capture indexes of its packets.
type Labels struct {
	Attack        string `json:"attack"`
	AttackPackets []int  `json:"attack_packets"`
}

// loadLabels reads the sidecar next to a capture, if present.
func loadLabels(capturePath string) *Labels {
	f, err := os.Open(capturePath + ".labels.json")
	if err != nil {
		return nil
	}
	defer f.Close()
	var l Labels
	if err := json.NewDecoder(f).Decode(&l); err != nil {
		return nil
	}
	return &l
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	in := fs.String("in", "trace.pcap", "input capture path")
	batch := fs.Int("batch", 1000, "batch size n")
	rank := fs.Int("rank", 12, "retained rank r")
	k := fs.Int("k", 200, "centroids k")
	home := fs.String("home", "10.0.0.0/8", "HOME_NET prefix")
	epochVolume := fs.Int("epoch", 4000, "packets per inference epoch")
	stats := fs.Bool("stats", false, "collect runtime metrics and print the observability summary table to stderr")
	traceOn := fs.Bool("trace", false, "record per-epoch stage timelines")
	traceOut := fs.String("trace-out", "", "write the timelines as a Chrome trace-event file; implies -trace")
	fs.Parse(args)
	obs.SetEnabled(*stats)
	if *traceOut != "" {
		*traceOn = true
	}
	trace.SetEnabled(*traceOn)

	prefix, err := netip.ParsePrefix(*home)
	if err != nil {
		return fmt.Errorf("bad -home: %w", err)
	}
	env := rules.NewEnvironment()
	env.Set("HOME_NET", prefix)
	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		return err
	}
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(*epochVolume)
	}
	pipeline, err := core.NewPipeline(core.PipelineConfig{
		NumMonitors: 1,
		Summary:     summary.Config{BatchSize: *batch, Rank: *rank, Centroids: *k, MinBatch: *batch / 2, Seed: 1},
		Controller:  core.ControllerConfig{Env: env, Questions: questions},
	})
	if err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	if r.LinkType() != pcap.LinkTypeRaw && r.LinkType() != pcap.LinkTypeEthernet {
		return fmt.Errorf("unsupported link type %d", r.LinkType())
	}

	labels := loadLabels(*in)
	attackIdx := map[int]bool{}
	if labels != nil {
		for _, i := range labels.AttackPackets {
			attackIdx[i] = true
		}
	}
	epochHadAttack := false
	attackEpochs, detectedAttackEpochs := 0, 0

	total, decoded, inEpoch, alerts := 0, 0, 0, 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		data := p.Data
		if r.LinkType() == pcap.LinkTypeEthernet {
			if len(data) < 14 {
				continue
			}
			data = data[14:]
		}
		var h packet.Header
		if _, _, err := h.UnmarshalIPv4(data); err != nil {
			continue // unsupported protocol or malformed: skip, as a monitor would
		}
		decoded++
		if attackIdx[total-1] {
			epochHadAttack = true
		}
		if err := pipeline.Ingest(h); err != nil {
			return err
		}
		inEpoch++
		if inEpoch >= *epochVolume {
			res, err := pipeline.RunEpoch()
			if err != nil {
				return err
			}
			hit := false
			for _, a := range res.Alerts {
				fmt.Println(a)
				alerts++
				if labels != nil && string(a.Attack) == labels.Attack {
					hit = true
				}
			}
			if labels != nil && epochHadAttack {
				attackEpochs++
				if hit {
					detectedAttackEpochs++
				}
			}
			epochHadAttack = false
			inEpoch = 0
		}
	}
	// Final partial epoch.
	if inEpoch > 0 {
		res, err := pipeline.RunEpoch()
		if err != nil {
			return err
		}
		for _, a := range res.Alerts {
			fmt.Println(a)
			alerts++
		}
	}
	st := pipeline.Controller.Stats()
	fmt.Printf("\n%d records, %d packets analyzed over %d epochs; %d alerts; overhead %.1f%% of raw\n",
		total, decoded, st.Epochs, alerts, 100*st.OverheadFraction())
	if labels != nil && attackEpochs > 0 {
		fmt.Printf("ground truth (%s): detected in %d of %d attack epochs (%.0f%%)\n",
			labels.Attack, detectedAttackEpochs, attackEpochs,
			100*float64(detectedAttackEpochs)/float64(attackEpochs))
	}
	if *stats {
		obs.WriteTable(os.Stderr)
	}
	if *traceOut != "" {
		if err := trace.WriteTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote epoch trace to %s\n", *traceOut)
	}
	return nil
}
