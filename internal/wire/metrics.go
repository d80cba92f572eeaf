package wire

import (
	"fmt"

	"repro/internal/obs"
)

// Per-message-type frame and byte accounting, both directions. Sitting
// in WriteFrame/ReadFrame — the single choke point every monitor↔
// controller byte crosses — these four counter families give a live
// view of the Fig. 12 communication split: summary bytes vs raw-batch
// bytes vs control chatter. bytes count the full frame (5-byte header
// included), matching what the network carries.
//
// The counters are indexed by message type; types outside the known
// range land in the "other" slot, so a corrupt or future frame is
// still accounted rather than dropped from the books.

// numMsgTypes is the size of the per-type counter arrays: known types
// are 1..MsgHello, slot 0 is "other".
const numMsgTypes = int(MsgHello) + 1

type dirCounters struct {
	frames [numMsgTypes]*obs.Counter
	bytes  [numMsgTypes]*obs.Counter
}

func newDirCounters(dir string) *dirCounters {
	d := &dirCounters{}
	for t := 0; t < numMsgTypes; t++ {
		label := "other"
		if t > 0 {
			label = MsgType(t).String()
		}
		d.frames[t] = obs.NewCounter(
			fmt.Sprintf("jaal_wire_%s_frames_total{type=%q}", dir, label),
			"wire frames by direction and message type")
		d.bytes[t] = obs.NewCounter(
			fmt.Sprintf("jaal_wire_%s_bytes_total{type=%q}", dir, label),
			"wire bytes (frame header included) by direction and message type")
	}
	return d
}

func (d *dirCounters) count(t MsgType, payloadLen int) {
	i := int(t)
	if i >= numMsgTypes {
		i = 0
	}
	d.frames[i].Inc()
	d.bytes[i].Add(int64(payloadLen) + frameHeaderSize)
}

var (
	txCounters = newDirCounters("tx")
	rxCounters = newDirCounters("rx")
)
