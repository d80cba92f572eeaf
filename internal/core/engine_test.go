package core

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/trafficgen"
)

// fakeEndpoint answers every poll with a fixed result.
type fakeEndpoint struct {
	id  int
	ss  []*summary.Summary
	err error
}

func (f fakeEndpoint) ID() int { return f.id }

func (f fakeEndpoint) Poll(uint64) ([]*summary.Summary, int, *sketch.Digest, error) {
	return f.ss, 0, nil, f.err
}

// floodPipeline builds a 3-monitor in-process pipeline and feeds it one
// epoch of background plus a distributed SYN flood.
func floodPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 3,
		Summary:     smallSummaryConfig(),
		Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 2500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 11, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(11)), atk,
		trafficgen.MixConfig{Seed: 11})
	for _, lp := range mix.Batch(2500) {
		if err := p.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func alertLines(res EpochResult) string {
	var b strings.Builder
	for _, a := range res.Alerts {
		b.WriteString(a.String() + "\n")
	}
	return b.String()
}

// sealedEpochs lists the epochs whose traces have been sealed into the
// ring, oldest first.
func sealedEpochs() []uint64 {
	traces := trace.Snapshot(0)
	out := make([]uint64, len(traces))
	for i, tr := range traces {
		out[len(traces)-1-i] = tr.Epoch
	}
	return out
}

// TestEngineEndpointErrorDegrades: an endpoint that fails its poll costs
// the epoch that endpoint's coverage and nothing else — the in-process
// loop used to abort on it, only the wire loop degraded. The other
// monitors' summaries are processed, the alerts are the ones a pipeline
// without the broken endpoint raises, the epoch is counted degraded and
// its trace is sealed.
func TestEngineEndpointErrorDegrades(t *testing.T) {
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()
	withEpochTracing(t)

	want, err := floodPipeline(t).RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Alerts) == 0 {
		t.Fatal("the healthy pipeline raised no alert; the comparison would be vacuous")
	}

	p := floodPipeline(t)
	boom := errors.New("tap unplugged")
	p.Endpoints = append(p.Endpoints, fakeEndpoint{id: 99, err: boom})
	degradedBefore := cEpochDegraded.Value()
	res, err := p.RunEpoch()
	if err != nil {
		t.Fatalf("a failed poll must degrade the epoch, not abort it: %v", err)
	}
	if !res.Degraded || len(res.Declines) != 1 || res.Declines[0].MonitorID != 99 ||
		!errors.Is(res.Declines[0].Err, boom) || !res.Declines[0].Unreachable() {
		t.Fatalf("degraded=%v declines=%+v, want one failed-poll decline for endpoint 99", res.Degraded, res.Declines)
	}
	if got := cEpochDegraded.Value() - degradedBefore; got != 1 {
		t.Fatalf("jaal_epoch_degraded_total moved by %d, want 1", got)
	}
	if len(res.Summaries) != len(want.Summaries) || alertLines(res) != alertLines(want) {
		t.Fatalf("the healthy monitors' epoch changed:\n%d summaries\n%s--- want ---\n%d summaries\n%s",
			len(res.Summaries), alertLines(res), len(want.Summaries), alertLines(want))
	}
	if st := p.Controller.Stats(); st.Epochs != 1 || st.PacketsSummarized == 0 {
		t.Fatalf("the surviving summaries were not processed: %+v", st)
	}
	if got := sealedEpochs(); !reflect.DeepEqual(got, []uint64{0, 0}) {
		t.Fatalf("sealed epochs %v, want epoch 0 of each pipeline", got)
	}
}

// TestEngineInferenceErrorStillSealsTrace: summaries the aggregator
// refuses fail the epoch — and the epoch's trace is sealed all the same.
// Pipeline.RunEpoch used to return before trace.FinishEpoch on this path
// and leave the epoch's spans staged forever.
func TestEngineInferenceErrorStillSealsTrace(t *testing.T) {
	withEpochTracing(t)
	p := floodPipeline(t)
	narrow := &summary.Summary{
		Kind: summary.KindCombined, MonitorID: 99, BatchSize: 1,
		Centroids: linalg.NewMatrix(1, packet.NumFields-1), Counts: []int{1},
	}
	p.Endpoints = append(p.Endpoints, fakeEndpoint{id: 99, ss: []*summary.Summary{narrow}})

	res, err := p.RunEpoch()
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("RunEpoch error = %v, want the aggregator's field-count refusal", err)
	}
	if len(res.Alerts) != 0 || len(res.Summaries) == 0 {
		t.Fatalf("failed epoch returned %d alerts and %d summaries; want no alerts and the poll's outcome",
			len(res.Alerts), len(res.Summaries))
	}
	if got := sealedEpochs(); !reflect.DeepEqual(got, []uint64{res.Epoch}) {
		t.Fatalf("sealed epochs %v, want [%d]: the failed epoch leaked its trace", got, res.Epoch)
	}
}

// TestEngineInProcessWireParity runs the same seeded traffic through two
// deployments of the one engine — monitors polled in this process, and
// the same monitors behind MonitorServer/RemoteMonitor over net.Pipe —
// and wants the same epochs from both: alerts, declines, digests,
// volumetric reports and final Stats, with the feedback loop fetching raw
// packets after the monitors have ended their epochs. In epoch 0 monitor
// 2 sits under MinBatch: it declines, its epoch stays open, and the digest
// it ships in epoch 1 covers both epochs, on both sides.
func TestEngineInProcessWireParity(t *testing.T) {
	const monitors, epochs, perEpoch = 3, 4, 3000
	const thinEpoch, thinMonitor, thinPackets = 0, 2, 40

	type deployment struct {
		mons   []*Monitor
		engine *Engine
	}
	build := func(wire bool) deployment {
		qs := testQuestions(t, perEpoch)
		ctrl, err := NewController(ControllerConfig{
			Env: testEnv(), Questions: qs, Feedback: uniformFeedbackConfigs(qs), UseFeedback: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := deployment{engine: &Engine{Controller: ctrl}}
		for i := 0; i < monitors; i++ {
			cfg := smallSummaryConfig()
			cfg.Seed += int64(i)
			m, err := NewMonitorSketch(i, cfg, sketch.DefaultConfig(100000))
			if err != nil {
				t.Fatal(err)
			}
			d.mons = append(d.mons, m)
			if !wire {
				ctrl.RegisterSource(i, m)
				d.engine.Endpoints = append(d.engine.Endpoints, localEndpoint{m})
				continue
			}
			client, server := net.Pipe()
			go (&MonitorServer{Monitor: m}).Serve(server)
			rm, err := DialMonitorRetry(oneShot(client), RetryConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rm.Close() })
			ctrl.RegisterSource(i, rm)
			d.engine.Endpoints = append(d.engine.Endpoints, rm)
		}
		return d
	}

	// run renders every epoch; offered[e][m] is what monitor m's digest
	// reported in epoch e (0 when it shipped none).
	run := func(d deployment) (rendered string, offered [epochs][monitors]uint64, fed [epochs][monitors]uint64) {
		atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
			trafficgen.AttackConfig{Seed: 5, Victim: 0x0A000001})
		if err != nil {
			t.Fatal(err)
		}
		mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1)), atk,
			trafficgen.MixConfig{Seed: 5})
		var b strings.Builder
		for e := 0; e < epochs; e++ {
			for _, lp := range mix.Batch(perEpoch) {
				m := int(lp.Header.Flow().FastHash() % monitors)
				if e == thinEpoch && m == thinMonitor && fed[e][m] == thinPackets {
					continue
				}
				fed[e][m]++
				if err := d.mons[m].Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			res, err := d.engine.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "epoch %d: %d summaries, degraded=%v\n", res.Epoch, len(res.Summaries), res.Degraded)
			for _, dec := range res.Declines {
				fmt.Fprintf(&b, "  decline: monitor %d pending %d err %v\n", dec.MonitorID, dec.Pending, dec.Err)
			}
			for _, dg := range res.Digests {
				offered[e][dg.MonitorID] = dg.Offered
				fmt.Fprintf(&b, "  digest: monitor %d epoch %d offered %d shed %d kept %d flows %d dst %v src %v\n",
					dg.MonitorID, dg.Epoch, dg.Offered, dg.Shed, dg.Kept, dg.FlowEstimate(), dg.TopDst, dg.TopSrc)
			}
			if res.Volumetric != nil {
				fmt.Fprintf(&b, "  volumetric: %+v\n", *res.Volumetric)
			}
			b.WriteString(alertLines(res))
		}
		return b.String(), offered, fed
	}

	local, wire := build(false), build(true)
	localRun, localOffered, fed := run(local)
	wireRun, wireOffered, _ := run(wire)
	if localRun != wireRun {
		t.Errorf("the engine's epochs differ between in-process and wire endpoints:\n--- in-process ---\n%s--- wire ---\n%s",
			localRun, wireRun)
	}
	if ls, ws := local.engine.Controller.Stats(), wire.engine.Controller.Stats(); ls != ws {
		t.Errorf("stats differ: in-process %+v, wire %+v", ls, ws)
	} else if ls.AlertsRaised == 0 || ls.RawPacketsFetched == 0 {
		t.Fatalf("workload raised %d alerts and fetched %d raw packets; parity would be vacuous", ls.AlertsRaised, ls.RawPacketsFetched)
	}
	if !strings.Contains(localRun, fmt.Sprintf("decline: monitor %d pending %d err <nil>", thinMonitor, thinPackets)) {
		t.Errorf("monitor %d did not decline epoch %d with %d pending:\n%s", thinMonitor, thinEpoch, thinPackets, localRun)
	}
	for name, offered := range map[string][epochs][monitors]uint64{"in-process": localOffered, "wire": wireOffered} {
		if got := offered[thinEpoch][thinMonitor]; got != 0 {
			t.Errorf("%s: the declining monitor shipped a digest (offered %d)", name, got)
		}
		want := fed[thinEpoch][thinMonitor] + fed[thinEpoch+1][thinMonitor]
		if got := offered[thinEpoch+1][thinMonitor]; got != want {
			t.Errorf("%s: digest after the decline reports %d offered, want both epochs' %d", name, got, want)
		}
	}
}
