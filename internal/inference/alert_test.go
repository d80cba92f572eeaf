package inference

import (
	"fmt"
	"math"
	"testing"
)

// sprintfAlert is the alert line as fmt formatted it before AppendText:
// the reference AppendText's bytes are held to.
func sprintfAlert(a *Alert) string {
	return fmt.Sprintf("[epoch %d] ALERT %s sid=%d matched=%d distributed=%v msg=%q",
		a.Epoch, a.Attack, a.SID, a.MatchedPackets, a.Distributed, a.Msg)
}

// TestAlertAppendTextEqualsSprintf: AppendText, and String through it,
// write exactly fmt's bytes — over messages with quotes, backslashes,
// invalid UTF-8, control and non-ASCII runes or nothing at all, epochs 0
// and MaxUint64, and zero, negative and extreme counts — whatever dst
// already holds.
func TestAlertAppendTextEqualsSprintf(t *testing.T) {
	msgs := []string{
		"", `say "hi"`, `back\slash`, "bad \xff\xfe utf-8", "tab\tnewline\n\x00bell\a\x7f",
		"café ünïcode 攻撃 🚨", "\u2028line sep\ufeff", "ET SCAN \"SYN\" flood \\ 10.0.0.1",
	}
	alerts := []Alert{
		{Attack: "syn-flood", SID: 1, Epoch: 0, MatchedPackets: 0},
		{Attack: "dns-amp", SID: -7, Epoch: math.MaxUint64, MatchedPackets: -3, Distributed: true},
		{Attack: "", SID: math.MaxInt, Epoch: 1, MatchedPackets: math.MinInt, Distributed: true},
		{Attack: "gen-0001234", SID: 0, Epoch: 12345, MatchedPackets: 987654},
	}
	for _, base := range alerts {
		for _, msg := range msgs {
			a := base
			a.Msg = msg
			want := sprintfAlert(&a)
			if got := a.String(); got != want {
				t.Errorf("String() = %q, want %q", got, want)
			}
			if got := string(a.AppendText([]byte("prefix "))); got != "prefix "+want {
				t.Errorf("AppendText after a prefix = %q, want %q", got, "prefix "+want)
			}
		}
	}
}

// TestAlertAppendTextZeroAlloc: formatting into a buffer with room
// allocates nothing.
func TestAlertAppendTextZeroAlloc(t *testing.T) {
	a := &Alert{Attack: "syn-flood", SID: 1000001, Msg: `ET "SYN" flood \ café`, Epoch: 77, MatchedPackets: 4242, Distributed: true}
	buf := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(100, func() { buf = a.AppendText(buf[:0]) }); got != 0 {
		t.Fatalf("AppendText into a reused buffer: %.1f allocs/op, want 0", got)
	}
}
