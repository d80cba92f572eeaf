package core

import "repro/internal/sketch"

// The volumetric path is the sketch digest's consumer: every epoch the
// controller merges the digests that rode the summary frames and issues
// cheap volumetric verdicts — "address X is drawing share S of the
// epoch's offered traffic" — without touching summaries, questions or
// raw fetches. It answers the class of question a count-min sketch is
// actually good at (pre-declared single-dimension aggregates, §2) and
// keeps working even when the monitors shed most of their packets: the
// digest counts are taken before shedding, so the shares stay honest
// under overload.

// Volumetric verdict gates: an address must draw at least this share of
// the merged offered traffic, in an epoch with at least this many
// offered packets, before a verdict is issued.
const (
	volumetricShare   = 0.10
	volumetricMinPkts = 1000
)

// VolumetricVerdict names one address drawing an outsized share of an
// epoch's offered traffic, per the merged heavy-hitter estimates.
type VolumetricVerdict struct {
	// Dimension is "dst" (traffic sink — flood/brute-force victim) or
	// "src" (traffic source — scanner, exfiltration origin).
	Dimension string
	// Addr is the IPv4 address.
	Addr uint32
	// Packets is the merged count-min estimate of the address's epoch
	// traffic (summed across monitors; flows are partitioned across
	// monitors, so the sum is itself a count-min-style overestimate).
	Packets uint64
	// Share is Packets over the merged offered total.
	Share float64
}

// VolumetricReport is one epoch's merged digest view.
type VolumetricReport struct {
	Epoch    uint64
	Monitors int
	// Offered/Shed/Kept sum the per-monitor accounting; Offered is the
	// pre-shed truth the shares are computed against.
	Offered, Shed, Kept uint64
	// Flows is the merged distinct-flow estimate (HLL register max, so
	// overlapping flows are not double-counted).
	Flows uint64
	// Verdicts lists the addresses over the share gate, destination
	// dimension first, heaviest first.
	Verdicts []VolumetricVerdict
}

// ShedFraction returns the merged shed/offered ratio.
func (r *VolumetricReport) ShedFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// MergeDigests folds per-monitor sketch digests into one epoch report,
// issuing verdicts for addresses whose merged estimate reaches
// volumetricShare of the merged offered traffic. Nil when no digests
// arrived. Pure: metrics are the caller's business.
func MergeDigests(epoch uint64, ds []*sketch.Digest) *VolumetricReport {
	if len(ds) == 0 {
		return nil
	}
	rep := &VolumetricReport{Epoch: epoch, Monitors: len(ds)}
	flows := sketch.NewHLL()
	dst := make(map[uint32]uint64)
	src := make(map[uint32]uint64)
	for _, d := range ds {
		if d == nil {
			continue
		}
		rep.Offered += d.Offered
		rep.Shed += d.Shed
		rep.Kept += d.Kept
		if d.Flows != nil {
			flows.Merge(d.Flows)
		}
		for _, hh := range d.TopDst {
			dst[hh.Key] += hh.Count
		}
		for _, hh := range d.TopSrc {
			src[hh.Key] += hh.Count
		}
	}
	rep.Flows = flows.Estimate()
	if rep.Offered < volumetricMinPkts {
		return rep
	}
	rep.Verdicts = append(rep.Verdicts, verdictsFor("dst", dst, rep.Offered)...)
	rep.Verdicts = append(rep.Verdicts, verdictsFor("src", src, rep.Offered)...)
	return rep
}

// verdictsFor gates and orders one dimension's merged estimates:
// packets descending, address ascending on ties — deterministic
// regardless of map iteration.
func verdictsFor(dim string, merged map[uint32]uint64, offered uint64) []VolumetricVerdict {
	out := make([]VolumetricVerdict, 0, len(merged))
	//jaalvet:ignore mapiter — the slice is fully sorted below; iteration order cannot reach the output
	for addr, pkts := range merged {
		share := float64(pkts) / float64(offered)
		if share >= volumetricShare {
			out = append(out, VolumetricVerdict{Dimension: dim, Addr: addr, Packets: pkts, Share: share})
		}
	}
	// Insertion sort: the list is ≤ top-K length × monitors entries and
	// staying off sort.Slice avoids boxing the slice per epoch.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Packets > b.Packets || (a.Packets == b.Packets && a.Addr <= b.Addr) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// ObserveDigests merges one epoch's sketch digests into a volumetric
// report and counts the issued verdicts. Engine.RunEpoch calls it ahead
// of ProcessEpoch with the digests the poll returned and hands the
// report out in EpochResult.Volumetric; a sketchless deployment passes
// none and gets nil.
func (c *Controller) ObserveDigests(epoch uint64, ds []*sketch.Digest) *VolumetricReport {
	rep := MergeDigests(epoch, ds)
	if rep != nil {
		cVolumetricVerdicts.Add(int64(len(rep.Verdicts)))
	}
	return rep
}
