// Fixtures for the hotalloc analyzer. The package basename "core" puts
// these functions under the configured hot roots; reachability flows
// from (*Monitor).Ingest and (*Pipeline).RunEpoch into helpers and
// function literals.
package core

import (
	"fmt"
	"sync"
)

type Monitor struct {
	mu    sync.Mutex
	ready []int
}

// Ingest is a hot root: every allocation here is per packet.
func (m *Monitor) Ingest(h int) error {
	name := fmt.Sprintf("pkt-%d", h) // want `fmt\.Sprintf allocates in the hot path`
	_ = name
	sink(h) // want `h \(non-pointer int\) is boxed into interface any per call in the hot path`
	sink(m) // clean: pointers are pointer-shaped, boxing allocates nothing
	return m.summarize(h)
}

// summarize is reached from Ingest (and is a root itself).
func (m *Monitor) summarize(h int) error {
	var batch []int
	batch = append(batch, h)       // want `append grows capacity-less slice batch in the hot path`
	tags := map[int]string{h: "x"} // want `map literal allocates in the hot path`
	_ = tags
	pair := []int{h, h + 1} // want `slice literal allocates in the hot path`
	_ = pair
	sized := make([]int, 0, 8)
	sized = append(sized, h) // clean: presized
	_ = sized
	m.assertPositive(h)
	m.publish(h)
	m.flush(h)
	return nil
}

// publish is hot transitively; appending to a field is not a
// capacity-less local growth (retention buffers grow by design).
func (m *Monitor) publish(s int) {
	m.ready = append(m.ready, s)
}

// flush shows a reviewed growth silenced with a reason.
func (m *Monitor) flush(h int) {
	var acc []int
	acc = append(acc, h) //jaalvet:ignore hotalloc — flush runs once per sealed batch, amortized over the batch size
	_ = acc
}

type Engine struct{ n int }

// RunEpoch is a hot root; the literal it fans out is the actual loop
// body, so its allocations count too.
func (p *Engine) RunEpoch() {
	each(p.n, func(i int) {
		s := fmt.Sprint(i) // want `fmt\.Sprint allocates in the hot path`
		_ = s
	})
}

func each(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// assertPositive is hot via summarize's callers, but everything here
// is exempt: boxing into a variadic ...any is a reporting sink, and
// allocations feeding a panic happen once, on the way down.
func (m *Monitor) assertPositive(h int) {
	if h < 0 {
		record("bad header", h) // clean: variadic ...any boxing is exempt
		panic(fmt.Sprintf("negative header %d", h))
	}
}

func record(msg string, args ...any) { _, _ = msg, args }

// Cold is not reachable from any root: allocations are fine here.
func Cold() string {
	var xs []string
	xs = append(xs, fmt.Sprintf("cold"))
	return xs[0]
}

func sink(v any) { _ = v }
