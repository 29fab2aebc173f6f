package vpm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/transport"
)

func newMachine() *Machine {
	return New(netsim.New(nil))
}

func TestSpawnAssignsDistinctPIDs(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	seen := make(map[ids.PID]bool)
	for i := 0; i < 10; i++ {
		p, err := m.Spawn(func(p *Proc) { _, _ = p.Recv() }) // park until shutdown
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		if seen[p.PID()] {
			t.Fatalf("duplicate PID %v", p.PID())
		}
		seen[p.PID()] = true
	}
}

func TestSendRecvBetweenProcesses(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()

	got := make(chan any, 1)
	recv, err := m.Spawn(func(p *Proc) {
		mm, err := p.Recv()
		if err != nil {
			return
		}
		got <- mm.Payload
	})
	if err != nil {
		t.Fatalf("spawn receiver: %v", err)
	}

	if _, err := m.Spawn(func(p *Proc) {
		p.Send(&msg.Message{Kind: msg.KindData, To: recv.PID(), Payload: "hi"})
	}); err != nil {
		t.Fatalf("spawn sender: %v", err)
	}

	select {
	case v := <-got:
		if v != "hi" {
			t.Fatalf("payload = %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
}

func TestSendStampsFrom(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	from := make(chan ids.PID, 1)
	recv, _ := m.Spawn(func(p *Proc) {
		mm, err := p.Recv()
		if err != nil {
			return
		}
		from <- mm.From
	})
	sender, _ := m.Spawn(func(p *Proc) {
		p.Send(&msg.Message{Kind: msg.KindData, To: recv.PID()})
	})
	select {
	case f := <-from:
		if f != sender.PID() {
			t.Fatalf("from = %v, want %v", f, sender.PID())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestKillClosesMailbox(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	exited := make(chan error, 1)
	p, _ := m.Spawn(func(p *Proc) {
		_, err := p.Recv()
		exited <- err
	})
	m.Kill(p.PID())
	select {
	case err := <-exited:
		if err != mailbox.ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("kill did not unblock the body")
	}
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never closed")
	}
	if m.Lookup(p.PID()) != nil {
		t.Fatal("killed process still registered")
	}
}

func TestLookup(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	started := make(chan struct{})
	p, _ := m.Spawn(func(p *Proc) {
		close(started)
		_, _ = p.Recv() // park until shutdown
	})
	<-started
	if m.Lookup(p.PID()) != p {
		t.Fatal("Lookup failed")
	}
	if m.Lookup(9999) != nil {
		t.Fatal("Lookup invented a process")
	}
}

func TestShutdownTerminatesEverything(t *testing.T) {
	m := newMachine()
	const n = 5
	var exited sync.WaitGroup
	exited.Add(n)
	for i := 0; i < n; i++ {
		if _, err := m.Spawn(func(p *Proc) {
			defer exited.Done()
			for {
				if _, err := p.Recv(); err != nil {
					return
				}
			}
		}); err != nil {
			t.Fatalf("spawn: %v", err)
		}
	}
	m.Shutdown()
	done := make(chan struct{})
	go func() { exited.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("bodies still running after Shutdown")
	}
	if _, err := m.Spawn(func(p *Proc) {}); err == nil {
		t.Fatal("spawn after shutdown succeeded")
	}
}

func TestDeadLetterAfterExit(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	p, _ := m.Spawn(func(p *Proc) {}) // exits immediately
	<-p.Done()
	m.Net().Send(&msg.Message{Kind: msg.KindData, From: 1, To: p.PID()})
	if st := m.Net().Stats(); st.Dead != 1 {
		t.Fatalf("dead = %d, want 1", st.Dead)
	}
}

// TestBodyPanicIsolated: a panicking body takes down only its own
// process; the machine and its siblings keep running.
func TestBodyPanicIsolated(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()

	var mu sync.Mutex
	var caught any
	m.OnPanic = func(pid ids.PID, r any, stack []byte) {
		mu.Lock()
		caught = r
		mu.Unlock()
	}

	p, err := m.Spawn(func(p *Proc) { panic("kaboom") })
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("panicking process never finished")
	}
	mu.Lock()
	if caught != "kaboom" {
		t.Fatalf("caught = %v", caught)
	}
	mu.Unlock()

	// Siblings still work.
	got := make(chan any, 1)
	recv, err := m.Spawn(func(p *Proc) {
		mm, err := p.Recv()
		if err != nil {
			return
		}
		got <- mm.Payload
	})
	if err != nil {
		t.Fatalf("spawn sibling: %v", err)
	}
	if _, err := m.Spawn(func(p *Proc) {
		p.Send(&msg.Message{Kind: msg.KindData, To: recv.PID(), Payload: "alive"})
	}); err != nil {
		t.Fatalf("spawn sender: %v", err)
	}
	select {
	case v := <-got:
		if v != "alive" {
			t.Fatalf("payload = %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("machine dead after sibling panic")
	}
}

// TestAllocPIDNeverReissues: the allocator skips every PID spawned,
// attached or placed with SpawnAt (a transplant's mid-range PID), and
// forgets a reservation once it has passed it.
func TestAllocPIDNeverReissues(t *testing.T) {
	m := newMachine()
	defer m.Shutdown()
	used := make(map[ids.PID]bool)
	for i := 0; i < 3; i++ {
		p, err := m.Spawn(func(p *Proc) { _, _ = p.Recv() })
		if err != nil {
			t.Fatal(err)
		}
		used[p.PID()] = true
	}
	first := m.AllocPID()
	used[first] = true
	m.Attach(first, func(*msg.Message) {}) // already passed: no reservation
	transplant, err := m.SpawnAt(first+2, func(p *Proc) { _, _ = p.Recv() })
	if err != nil {
		t.Fatal(err)
	}
	used[transplant.PID()] = true
	m.Attach(first+4, func(*msg.Message) {})
	used[first+4] = true
	for i := 0; i < 10; i++ {
		pid := m.AllocPID()
		if used[pid] {
			t.Fatalf("AllocPID re-issued %v", pid)
		}
		used[pid] = true
	}
	m.mu.Lock()
	left := len(m.taken)
	m.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d reservations kept after the allocator passed them", left)
	}
}

// TestRetireHandsEveryFrameOn: after Retire, the body drains what was
// queued and exits, the PID stays answered by the retired handler, and
// every frame sent reaches exactly one of the two — including frames
// racing the close.
func TestRetireHandsEveryFrameOn(t *testing.T) {
	m := New(transport.NewLocal())
	defer m.Shutdown()
	var drained, handed atomic.Int64
	p, err := m.Spawn(func(p *Proc) {
		for {
			if _, err := p.Recv(); err != nil {
				return
			}
			drained.Add(1)
			p.Handled()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Net().Send(&msg.Message{Kind: msg.KindData, From: 1, To: p.PID()})
			}
		}()
	}
	time.Sleep(time.Millisecond)
	p.Retire(func(*msg.Message) { handed.Add(1) })
	wg.Wait()
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("retired body never exited")
	}
	if m.Lookup(p.PID()) != nil {
		t.Fatal("retired process still in the machine")
	}
	m.Net().Send(&msg.Message{Kind: msg.KindData, From: 1, To: p.PID()})
	// A delivery that looked the mailbox handler up before Retire
	// replaced it lands after the close: it must still be handed on.
	p.deliver(&msg.Message{Kind: msg.KindData, From: 1, To: p.PID()})
	if got := drained.Load() + handed.Load(); got != 4*n+2 {
		t.Fatalf("%d frames accounted for (%d drained, %d handed), want %d",
			got, drained.Load(), handed.Load(), 4*n+2)
	}
	if st := m.Net().Stats(); st.Dead != 0 {
		t.Fatalf("%d dead letters to a retired PID", st.Dead)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain", m.Pending())
	}
}
