package faultnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"
)

// pipePair returns a faultnet-wrapped client over net.Pipe plus the
// raw server side.
func pipePair(plan *Plan) (*Conn, net.Conn) {
	client, server := net.Pipe()
	return New(client, plan), server
}

func TestTransparentWithoutPlan(t *testing.T) {
	c, server := pipePair(nil)
	defer c.Close()
	defer server.Close()
	go server.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read = %q, %v", buf, err)
	}
}

func TestResetOnScheduledWrite(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpWrite, Index: 1, Kind: KindReset}))
	defer c.Close()
	defer server.Close()
	go io.Copy(io.Discard, server)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write 0 must pass: %v", err)
	}
	_, err := c.Write([]byte("boom"))
	if err == nil || !IsInjected(err) {
		t.Fatalf("write 1 error = %v, want injected", err)
	}
	// The underlying connection is dead now.
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("peer write after reset must fail")
	}
}

func TestTruncatedWriteDeliversPrefix(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpWrite, Index: 0, Kind: KindTruncate, KeepBytes: 3}))
	defer c.Close()
	defer server.Close()
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := server.Read(buf)
		got <- buf[:n]
	}()
	n, err := c.Write([]byte("abcdef"))
	if n != 3 || !IsInjected(err) {
		t.Fatalf("truncated write = %d, %v; want 3, injected", n, err)
	}
	if b := <-got; string(b) != "abc" {
		t.Fatalf("peer saw %q, want %q", b, "abc")
	}
}

func TestDelayUsesInjectedSleep(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpWrite, Index: 0, Kind: KindDelay, Delay: 42 * time.Millisecond}))
	defer c.Close()
	defer server.Close()
	var slept time.Duration
	c.SetSleep(func(d time.Duration) { slept = d })
	go io.Copy(io.Discard, server)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if slept != 42*time.Millisecond {
		t.Fatalf("slept %v, want 42ms", slept)
	}
}

func TestStallHonoursReadDeadline(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpRead, Index: 0, Kind: KindStall}))
	defer c.Close()
	defer server.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall ignored the deadline")
	}
}

func TestStallHonoursWriteDeadline(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpWrite, Index: 0, Kind: KindStall}))
	defer c.Close()
	defer server.Close()
	c.SetDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Write([]byte("x"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall ignored the deadline")
	}
}

func TestStallReleasedByClose(t *testing.T) {
	c, server := pipePair(NewPlan(Fault{Op: OpRead, Index: 0, Kind: KindStall}))
	defer server.Close()
	errC := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errC <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errC:
		if !IsInjected(err) {
			t.Fatalf("stall release error = %v, want injected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the stalled read")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	prof := LossyProfile(200, 100, time.Millisecond) // 50% loss
	a := prof.Generate(rand.New(rand.NewSource(7)), 20).Faults()
	b := prof.Generate(rand.New(rand.NewSource(7)), 20).Faults()
	if len(a) == 0 {
		t.Fatal("a 50%-loss profile over 40 ops generated no faults")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed generated %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := prof.Generate(rand.New(rand.NewSource(8)), 20).Faults()
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds generated identical plans")
		}
	}
}

func TestDialerWrapsPerConnection(t *testing.T) {
	plans := []*Plan{
		NewPlan(Fault{Op: OpWrite, Index: 0, Kind: KindReset}),
		nil, // connection 1 heals
	}
	dials := 0
	dial := Dialer(func() (net.Conn, error) {
		dials++
		client, server := net.Pipe()
		go io.Copy(io.Discard, server)
		return client, nil
	}, func(i int) *Plan {
		if i < len(plans) {
			return plans[i]
		}
		return nil
	})

	c0, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Write([]byte("x")); !IsInjected(err) {
		t.Fatalf("conn 0 write error = %v, want injected", err)
	}
	c1, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Write([]byte("x")); err != nil {
		t.Fatalf("healed conn 1 write failed: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dialed %d times, want 2", dials)
	}
}
