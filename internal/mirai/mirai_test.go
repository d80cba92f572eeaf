package mirai

import (
	"testing"
)

func TestRunBadArgs(t *testing.T) {
	if _, err := Run(DefaultConfig(false), 0, 1); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	if _, err := Run(DefaultConfig(false), 10, 0); err == nil {
		t.Fatal("zero dt must be rejected")
	}
}

func TestUncheckedInfectionGrows(t *testing.T) {
	res, err := Run(DefaultConfig(false), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfected < 100 {
		t.Fatalf("unchecked epidemic infected only %d of 150", res.TotalInfected)
	}
	// Monotone non-decreasing infections.
	prev := 0
	for _, s := range res.Samples {
		if s.Infected < prev {
			t.Fatal("infections must be monotone")
		}
		prev = s.Infected
	}
}

func TestDetectionCapsInfections(t *testing.T) {
	unchecked, err := Run(DefaultConfig(false), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := Run(DefaultConfig(true), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8: with Jaal the infected population never rises above ~50
	// (a three-fold decrease vs unchecked).
	if protected.TotalInfected >= unchecked.TotalInfected/2 {
		t.Fatalf("detection must cap infections: protected %d vs unchecked %d",
			protected.TotalInfected, unchecked.TotalInfected)
	}
	if protected.TotalInfected > 60 {
		t.Fatalf("protected run infected %d devices, paper caps it below ~50", protected.TotalInfected)
	}
	// Shutoffs must actually happen.
	last := protected.Samples[len(protected.Samples)-1]
	if last.Shutoff == 0 {
		t.Fatal("detection run must shut off bots")
	}
}

func TestActiveBotsDropAfterShutoff(t *testing.T) {
	res, err := Run(DefaultConfig(true), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With a 3 s detection delay and 95 % accuracy, the active scanning
	// population must stay small.
	if res.PeakActive > 30 {
		t.Fatalf("peak active bots %d too high under detection", res.PeakActive)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := Run(DefaultConfig(true), 60, 1)
	b, _ := Run(DefaultConfig(true), 60, 1)
	if a.TotalInfected != b.TotalInfected || a.PeakActive != b.PeakActive {
		t.Fatal("same seed must reproduce the trajectory")
	}
	cfg := DefaultConfig(true)
	cfg.Seed = 99
	c, _ := Run(cfg, 60, 1)
	if c.TotalInfected == a.TotalInfected && c.PeakActive == a.PeakActive {
		t.Log("different seeds coincided; acceptable but unusual")
	}
}

func TestSampleCadence(t *testing.T) {
	res, err := Run(DefaultConfig(false), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 11 {
		t.Fatalf("got %d samples for 10 s at dt=1, want 11", len(res.Samples))
	}
	if res.Samples[0].Time != 0 || res.Samples[10].Time != 10 {
		t.Fatal("sample timestamps wrong")
	}
}
