package faultwire

import (
	"bytes"
	"io"
	"math/bits"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wire"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newProxy(t *testing.T, target string, cfg ProxyConfig) *Proxy {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	cfg.Target = target
	p, err := NewProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestProxyRelays(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), ProxyConfig{Seed: 1})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []byte("through the looking glass")
	if _, err := c.Write(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("echo mismatch: %q", got)
	}
	// A pump counts a chunk after writing it on, so the echo can reach
	// the client before the count does: wait for it, as for Refused below.
	deadline := time.Now().Add(2 * time.Second)
	for st := p.Stats(); st.Accepted != 1 || st.Bytes < uint64(2*len(want)); st = p.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProxyBlockRefusesAndUnblockHeals(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), ProxyConfig{Seed: 2})

	p.Block()
	if !p.Blocked() {
		t.Fatal("Blocked() = false after Block")
	}
	c, err := net.Dial("tcp", p.Addr())
	if err == nil {
		// The dial is accepted then immediately closed: the first read
		// must fail rather than hang in a long dial timeout.
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := c.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("read succeeded across a partition")
		}
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Refused == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refused dial not counted: %v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	p.Unblock()
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatalf("echo after unblock: %v", err)
	}
}

func TestProxySeverCutsLiveConns(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), ProxyConfig{Seed: 3})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}

	if n := p.Sever(); n == 0 {
		t.Fatal("Sever cut no connections")
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded after sever")
	}
	if st := p.Stats(); st.Severed == 0 {
		t.Fatalf("stats = %v", st)
	}
}

func TestProxyCorruptFlipsOneBit(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), ProxyConfig{Seed: 4})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Arm one corruption, send a pattern, and count the damage: exactly
	// one bit differs across the round trip (the echo path crosses the
	// proxy twice, but only one chunk is armed).
	p.CorruptNext(1)
	want := bytes.Repeat([]byte{0xA5}, 1024)
	if _, err := c.Write(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range want {
		diff += bits.OnesCount8(want[i] ^ got[i])
	}
	if diff != 1 {
		t.Fatalf("bit flips across round trip = %d, want 1", diff)
	}
	if st := p.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %v", st)
	}
}

// TestProxyWireSurvivesFaults runs a live wire link through a pair of
// proxies (one per dialing direction) and injures it — severs, a
// partition, armed bit flips — while a message flood crosses. The wire
// layer must deliver everything exactly once in order; the frame CRC (or
// an out-of-range length) must reject every flip.
func TestProxyWireSurvivesFaults(t *testing.T) {
	a, err := wire.NewNode(wire.NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := wire.NewNode(wire.NodeConfig{ID: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	pab := newProxy(t, b.Addr(), ProxyConfig{Seed: 10, Jitter: 200 * time.Microsecond})
	pba := newProxy(t, a.Addr(), ProxyConfig{Seed: 11, Jitter: 200 * time.Microsecond})
	a.SetPeer(2, pab.Addr())
	b.SetPeer(1, pba.Addr())

	from, to := wire.PIDBase(1)+1, wire.PIDBase(2)+1
	var mu sync.Mutex
	var seqs []uint32
	b.Register(to, func(m *msg.Message) {
		mu.Lock()
		seqs = append(seqs, m.IID.Seq)
		mu.Unlock()
	})

	const total = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(1); i <= total; i++ {
			a.Send(msg.Guess(from, ids.IntervalID{Proc: from, Seq: i, Epoch: 1}, ids.AID(to)))
			if i%50 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	// Injure the link while the flood runs.
	time.Sleep(10 * time.Millisecond)
	pab.CorruptNext(2)
	pab.Sever()
	time.Sleep(10 * time.Millisecond)
	pab.Block()
	pba.Block()
	time.Sleep(30 * time.Millisecond)
	pab.Unblock()
	pba.Unblock()
	time.Sleep(10 * time.Millisecond)
	pab.CorruptNext(1)
	pab.Sever()
	<-done

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(seqs)
		mu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d; a=%v b=%v pab=%v pba=%v",
				n, total, a.WireStats(), b.WireStats(), pab.Stats(), pba.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != total {
		t.Fatalf("delivered %d, want exactly %d (duplicates reached the engine?)", len(seqs), total)
	}
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("delivery out of order at %d: seq %d", i, s)
		}
	}
	t.Logf("a: %v", a.WireStats())
	t.Logf("b: %v", b.WireStats())
	t.Logf("pab: %v, pba: %v", pab.Stats(), pba.Stats())
}
