// Package faultnet wraps net.Conn with a deterministic, scriptable
// fault plan: delayed reads and writes, truncated frames, mid-frame
// connection resets, and stalled reads and writes that only a deadline
// (or Close) can break. It exists so the transport layer's retry,
// timeout and reconnect logic (internal/core) can be driven through
// every failure mode the paper's deployment environment exhibits (§8:
// congested links, saturated engines) without touching production code
// paths — tests wrap the net.Conn a dial returns, production never
// imports this package.
//
// Faults are addressed by operation index — "the 3rd Read on this
// connection", "the 0th Write" — not by wall-clock time, so a plan
// replays identically on every run. Seeded plan generation
// (Profile.Generate) draws fault positions from an injected
// *rand.Rand; the LossyProfile preset derives its drop probability
// from netsim.Survival, the same proportional-loss model the
// evaluation scenarios use for congested links.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Op selects which connection operation a fault applies to.
type Op uint8

// Operations a fault can target.
const (
	// OpRead targets Read calls.
	OpRead Op = iota
	// OpWrite targets Write calls.
	OpWrite
)

// String names the operation.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Kind is the failure mode a fault injects.
type Kind uint8

// Failure modes.
const (
	// KindDelay sleeps Fault.Delay, then performs the operation
	// normally: a congested or long-RTT link.
	KindDelay Kind = 1 + iota
	// KindTruncate lets Fault.KeepBytes of the operation through, then
	// closes the underlying connection: a frame cut mid-flight.
	KindTruncate
	// KindReset closes the underlying connection and fails the
	// operation immediately: an abortive peer reset.
	KindReset
	// KindStall blocks the operation until the connection's deadline
	// passes or Close is called: a peer that accepts but never answers.
	KindStall
)

// String names the failure mode.
func (k Kind) String() string {
	switch k {
	case KindDelay:
		return "delay"
	case KindTruncate:
		return "truncate"
	case KindReset:
		return "reset"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault schedules one failure on a connection.
type Fault struct {
	// Op is the operation class the fault targets.
	Op Op
	// Index is the zero-based count of Op calls on the connection at
	// which the fault fires ("Index 2" = the third Read or Write).
	Index int
	// Kind is the failure mode.
	Kind Kind
	// Delay is the injected latency for KindDelay.
	Delay time.Duration
	// KeepBytes is how much of the operation KindTruncate lets through.
	KeepBytes int
}

// Plan is a scripted set of faults for one connection. A nil *Plan is
// valid and injects nothing.
type Plan struct {
	faults []Fault
}

// NewPlan builds a plan from scheduled faults. When several faults
// name the same (Op, Index), the first one listed wins.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: append([]Fault(nil), faults...)}
}

// Faults returns a copy of the scheduled faults.
func (p *Plan) Faults() []Fault {
	if p == nil {
		return nil
	}
	return append([]Fault(nil), p.faults...)
}

// lookup finds the fault scheduled for the idx-th op, if any.
func (p *Plan) lookup(op Op, idx int) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	for _, f := range p.faults {
		if f.Op == op && f.Index == idx {
			return f, true
		}
	}
	return Fault{}, false
}

// errInjected is the error class every injected failure returns,
// wrapped with the fault's position so test logs name the script line
// that fired.
type errInjected struct {
	f Fault
}

func (e errInjected) Error() string {
	return fmt.Sprintf("faultnet: injected %s on %s %d", e.f.Kind, e.f.Op, e.f.Index)
}

// Timeout marks stall faults as timeout errors so retry layers
// classify them like a real deadline miss.
func (e errInjected) Timeout() bool { return e.f.Kind == KindStall }

// Temporary reports injected faults as transient: the retry layer is
// expected to reconnect and try again.
func (e errInjected) Temporary() bool { return true }

// IsInjected reports whether err originated from a fault plan —
// chaos tests use it to tell scripted failures from real ones.
func IsInjected(err error) bool {
	_, ok := err.(errInjected)
	return ok
}

// Conn wraps a net.Conn and executes a fault plan against it. The
// zero operation counts start at the first call after wrapping, so
// plans compose with reconnect logic: each redial wraps a fresh Conn
// whose indices start over.
type Conn struct {
	inner net.Conn
	plan  *Plan
	// Sleep implements KindDelay; tests inject a recording stub, the
	// default is time.Sleep.
	sleep func(time.Duration)

	mu                          sync.Mutex
	reads                       int
	writes                      int
	readDeadline, writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// New wraps conn with the plan. A nil plan yields a transparent
// wrapper.
func New(conn net.Conn, plan *Plan) *Conn {
	return &Conn{
		inner:  conn,
		plan:   plan,
		sleep:  time.Sleep,
		closed: make(chan struct{}),
	}
}

// SetSleep replaces the delay implementation (tests count injected
// latency instead of paying it). It must be called before the
// connection is used.
func (c *Conn) SetSleep(fn func(time.Duration)) { c.sleep = fn }

// Read implements net.Conn, applying any fault scheduled for this
// read index.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	idx := c.reads
	c.reads++
	deadline := c.readDeadline
	c.mu.Unlock()

	f, ok := c.plan.lookup(OpRead, idx)
	if !ok {
		return c.inner.Read(p)
	}
	switch f.Kind {
	case KindDelay:
		c.sleep(f.Delay)
		return c.inner.Read(p)
	case KindTruncate:
		keep := f.KeepBytes
		if keep > len(p) {
			keep = len(p)
		}
		var n int
		var err error
		if keep > 0 {
			n, err = c.inner.Read(p[:keep])
		}
		c.inner.Close()
		if err != nil {
			return n, err
		}
		return n, nil // the closed conn fails the next read
	case KindReset:
		c.inner.Close()
		return 0, errInjected{f}
	case KindStall:
		return 0, c.stall(deadline, f)
	default:
		return 0, fmt.Errorf("faultnet: unknown fault kind %v", f.Kind)
	}
}

// Write implements net.Conn, applying any fault scheduled for this
// write index.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	idx := c.writes
	c.writes++
	deadline := c.writeDeadline
	c.mu.Unlock()

	f, ok := c.plan.lookup(OpWrite, idx)
	if !ok {
		return c.inner.Write(p)
	}
	switch f.Kind {
	case KindDelay:
		c.sleep(f.Delay)
		return c.inner.Write(p)
	case KindTruncate:
		keep := f.KeepBytes
		if keep > len(p) {
			keep = len(p)
		}
		var n int
		if keep > 0 {
			var err error
			n, err = c.inner.Write(p[:keep])
			if err != nil {
				c.inner.Close()
				return n, err
			}
		}
		c.inner.Close()
		return n, errInjected{f}
	case KindReset:
		c.inner.Close()
		return 0, errInjected{f}
	case KindStall:
		return 0, c.stall(deadline, f)
	default:
		return 0, fmt.Errorf("faultnet: unknown fault kind %v", f.Kind)
	}
}

// stall blocks until the deadline passes or the connection closes.
func (c *Conn) stall(deadline time.Time, f Fault) error {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-timeout:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return errInjected{f}
	}
}

// Close closes the wrapper and the underlying connection, releasing
// any stalled operation.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn. The wrapper records both deadlines so
// a stalled read or write honours the same deadline a blocked real one
// would.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}

// Profile gives the per-operation fault probabilities a generated plan
// draws from. Probabilities are evaluated in the order reset,
// truncate, delay; at most one fault lands on a given operation.
type Profile struct {
	// ResetProb is the chance an operation resets the connection.
	ResetProb float64
	// TruncateProb is the chance an operation is cut after
	// TruncateBytes.
	TruncateProb float64
	// TruncateBytes is how much a truncation lets through.
	TruncateBytes int
	// DelayProb is the chance an operation is delayed by Delay.
	DelayProb float64
	// Delay is the injected latency for delay faults.
	Delay time.Duration
}

// LossyProfile derives a profile from the netsim proportional-loss
// model: a wire crossing a resource offered `offered` packets per tick
// against `capacity` loses frames with probability
// 1 − netsim.Survival(offered, capacity), split evenly between resets
// and truncations, and delays the survivors with the same probability.
func LossyProfile(offered, capacity float64, delay time.Duration) Profile {
	loss := 1 - netsim.Survival(offered, capacity)
	return Profile{
		ResetProb:     loss / 2,
		TruncateProb:  loss / 2,
		TruncateBytes: 3, // inside the 5-byte frame header: always mid-frame
		DelayProb:     loss,
		Delay:         delay,
	}
}

// Generate draws a plan covering the first n reads and n writes from
// the seeded rng. Equal seeds produce equal plans.
func (pr Profile) Generate(rng *rand.Rand, n int) *Plan {
	var faults []Fault
	for _, op := range []Op{OpRead, OpWrite} {
		for i := 0; i < n; i++ {
			switch u := rng.Float64(); {
			case u < pr.ResetProb:
				faults = append(faults, Fault{Op: op, Index: i, Kind: KindReset})
			case u < pr.ResetProb+pr.TruncateProb:
				faults = append(faults, Fault{Op: op, Index: i, Kind: KindTruncate, KeepBytes: pr.TruncateBytes})
			case u < pr.ResetProb+pr.TruncateProb+pr.DelayProb:
				faults = append(faults, Fault{Op: op, Index: i, Kind: KindDelay, Delay: pr.Delay})
			}
		}
	}
	return NewPlan(faults...)
}

// Dialer returns a dial function that wraps every connection `dial`
// produces with the plan `nextPlan` returns for that connection
// (called with 0, 1, 2, … in dial order). A nil plan for a given
// connection leaves it fault-free — the standard shape for "the first
// k connection attempts misbehave, then the link heals".
func Dialer(dial func() (net.Conn, error), nextPlan func(conn int) *Plan) func() (net.Conn, error) {
	var mu sync.Mutex
	n := 0
	return func() (net.Conn, error) {
		mu.Lock()
		i := n
		n++
		mu.Unlock()
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		plan := nextPlan(i)
		if plan == nil {
			return conn, nil
		}
		return New(conn, plan), nil
	}
}
