// Package mirai models the Mirai case study of §8 (Fig. 8): an epidemic
// telnet scan spreading through vulnerable devices in an ISP network,
// with and without Jaal detecting infected scanners and having the
// administrator shut their traffic off.
//
// The model follows the attack structure the paper extracts from the
// published Mirai source: every bot continuously scans random addresses
// on TCP ports 23 and 2323; a scan that hits a vulnerable, uninfected,
// still-connected device infects it, and the new bot immediately starts
// the same scan.
package mirai

import (
	"fmt"
	"math/rand"
)

// Config parameterizes the emulation.
type Config struct {
	// DetectionEnabled switches Jaal's detection/response on.
	DetectionEnabled bool
	// Seed drives the simulation.
	Seed int64
}

// The paper's experiment: 150 vulnerable devices, detection within 3 s
// at 95 %.
const (
	// population is the total device count reachable by scans.
	population = 2000
	// vulnerable is how many devices are vulnerable (the paper
	// randomly selects 150 nodes).
	vulnerable = 150
	// scansPerBotPerSecond is each bot's scan rate.
	scansPerBotPerSecond = 40
	// hitProbability is the chance a single scan probe lands on a
	// member of the device population (the rest of the address space
	// is empty or immune).
	hitProbability = 0.02
	// detectionDelaySeconds is how long a bot scans before Jaal flags
	// it.
	detectionDelaySeconds = 3
	// responseDelaySeconds is the additional time between Jaal's alert
	// and the administrator actually disconnecting the device —
	// ticket-driven human response, not part of Jaal itself.
	responseDelaySeconds = 18
	// detectionAccuracy is the probability a given bot is ever
	// detected (per detection window).
	detectionAccuracy = 0.95
)

// DefaultConfig returns the paper's experiment with detection on or
// off.
func DefaultConfig(detection bool) Config {
	return Config{DetectionEnabled: detection, Seed: 1}
}

// deviceState tracks one vulnerable device.
type deviceState struct {
	infected   bool
	infectedAt float64
	// shutoff means the administrator disconnected the device after
	// Jaal detected its scanning.
	shutoff bool
	// undetectable marks the bots the detector misses (the 5 %).
	undetectable bool
}

// Sample is one time point of the epidemic trajectory.
type Sample struct {
	// Time in seconds since patient zero started scanning.
	Time float64
	// Infected is the cumulative number of infected devices (including
	// ones later shut off: they were compromised).
	Infected int
	// Active is the number of currently scanning bots.
	Active int
	// Shutoff is the number of detected-and-disconnected bots.
	Shutoff int
}

// Result is a full emulation run.
type Result struct {
	Config  Config
	Samples []Sample
	// PeakActive is the maximum simultaneous scanning population — the
	// DDoS firepower available to the attacker.
	PeakActive int
	// TotalInfected is the final cumulative infection count.
	TotalInfected int
}

// Run simulates the epidemic in dt-second steps for the given duration
// and returns the trajectory sampled once per step.
func Run(cfg Config, durationSeconds, dt float64) (*Result, error) {
	if dt <= 0 || durationSeconds <= 0 {
		return nil, fmt.Errorf("mirai: duration and dt must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	devices := make([]deviceState, vulnerable)
	// Patient zero: an external bot outside the vulnerable pool starts
	// scanning; model it as one persistent active scanner.
	externalBots := 1

	res := &Result{Config: cfg}
	infected, shutoff := 0, 0

	for now := 0.0; now <= durationSeconds; now += dt {
		// Count active scanners.
		active := externalBots
		for i := range devices {
			if devices[i].infected && !devices[i].shutoff {
				active++
			}
		}

		// Detection/response: bots past the detection delay get flagged
		// with the configured accuracy (decided once per bot); the
		// administrator disconnects them after the response delay.
		if cfg.DetectionEnabled {
			for i := range devices {
				d := &devices[i]
				if d.infected && !d.shutoff && !d.undetectable &&
					now-d.infectedAt >= detectionDelaySeconds+responseDelaySeconds {
					if rng.Float64() < detectionAccuracy {
						d.shutoff = true
						shutoff++
					} else {
						d.undetectable = true
					}
				}
			}
		}

		// Scanning: each active bot sends rate·dt probes; each probe
		// hits a random member of the device population with
		// hitProbability, and a hit on an uninfected vulnerable device
		// infects it.
		probes := float64(active) * scansPerBotPerSecond * dt
		hits := 0
		for p := 0.0; p < probes; p++ {
			if rng.Float64() < hitProbability {
				hits++
			}
		}
		for h := 0; h < hits; h++ {
			// A hit lands on a uniformly random device; only the
			// vulnerable ones are modeled, scaled by their share.
			if rng.Float64() >= float64(vulnerable)/float64(population) {
				continue
			}
			i := rng.Intn(vulnerable)
			d := &devices[i]
			if !d.infected {
				d.infected = true
				d.infectedAt = now
				infected++
			}
		}

		res.Samples = append(res.Samples, Sample{
			Time: now, Infected: infected, Active: active, Shutoff: shutoff,
		})
		if active > res.PeakActive {
			res.PeakActive = active
		}
	}
	res.TotalInfected = infected
	return res, nil
}
