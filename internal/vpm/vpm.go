// Package vpm implements the virtual process machine — the substitute for
// the paper's PVM substrate. Processes are goroutines with mailboxes,
// identified by PIDs, exchanging asynchronous messages over a simulated
// network (internal/netsim). HOPE user processes run as vpm processes;
// the engine's AID table attaches its assumptions' PIDs to one mailbox
// instead (Attach), so an assumption costs no goroutine.
package vpm

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/transport"
)

// Body is a process body. It runs in its own goroutine and should return
// when its mailbox closes (Recv returns mailbox.ErrClosed) or its work is
// done.
type Body func(p *Proc)

// Machine hosts a set of processes over one transport.
type Machine struct {
	net   transport.Transport
	alloc ids.PIDAllocator

	// OnPanic, when set before any Spawn, observes panics escaping
	// process bodies (after recovery). The default writes the panic and
	// stack to stderr. A panicking body's process is cleaned up like any
	// exiting process; the rest of the machine keeps running.
	OnPanic func(pid ids.PID, recovered any, stack []byte)

	mu    sync.Mutex
	procs map[ids.PID]*Proc
	// taken holds the SpawnAt and Attach PIDs the allocator has not yet
	// passed; AllocPID skips each one and forgets it. PIDs at or below
	// the allocator's position need no entry: it never issues them again.
	taken  map[ids.PID]bool
	closed bool

	// pending counts the messages queued in any process mailbox or in
	// its body's hand: every mailbox adds one per message it enqueues
	// (mailbox.NewCounted) and Proc.Handled subtracts one.
	pending atomic.Int64

	wg sync.WaitGroup
}

// New creates a machine over the given transport. A simulated transport
// must not be shared with another machine; a distributed transport
// (internal/wire) is shared with remote machines by design, one machine
// per node.
func New(net transport.Transport) *Machine {
	return &Machine{
		net:   net,
		procs: make(map[ids.PID]*Proc),
		taken: make(map[ids.PID]bool),
	}
}

// Pending returns the number of messages put into any process mailbox
// of this machine for which the receiving body has not yet called
// Handled. It is exact only if every body calls Handled once per
// message it receives.
func (m *Machine) Pending() int64 { return m.pending.Load() }

// Net returns the machine's transport (for statistics and draining).
func (m *Machine) Net() transport.Transport { return m.net }

// SkipPIDs advances the PID allocator so every PID this machine issues is
// greater than base. Distributed deployments give each node a disjoint
// PID namespace this way (see internal/wire), so a PID identifies its
// owning node.
func (m *Machine) SkipPIDs(base ids.PID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alloc.Skip(base)
	for pid := range m.taken {
		if pid <= base {
			delete(m.taken, pid)
		}
	}
}

// Proc is a process handle: a PID plus its mailbox.
type Proc struct {
	pid     ids.PID
	box     *mailbox.Box
	machine *Machine
	done    chan struct{}
	retired transport.Handler // set by Retire, under machine.mu
}

// Spawn creates a process running body and returns its handle. The body
// goroutine is tracked; Machine.Shutdown waits for it.
func (m *Machine) Spawn(body Body) (*Proc, error) {
	return m.spawn(m.AllocPID(), body)
}

// SpawnAt creates a process with a caller-chosen PID — used for
// well-known service processes (wire.RouterPID) that peers must be able
// to address without discovery. The PID must be outside the allocator's
// range (the allocator counts up from SkipPIDs' base; router PIDs sit at
// the top of the node's namespace) and must not already be live.
func (m *Machine) SpawnAt(pid ids.PID, body Body) (*Proc, error) {
	return m.spawn(pid, body)
}

// AllocPID issues a fresh PID from the machine's allocator without
// spawning a process for it. Ownership routing uses this to mint AID
// identities whose state machines are hosted on the ring owner rather
// than as local processes. PIDs already spawned at or attached ahead of
// the allocator (SpawnAt targets such as adopted transplants, whose PIDs
// sit mid-range) are skipped, so the allocator never re-issues a live or
// once-live PID: PIDs are monotone, which is what lets a reaped process's
// PID keep answering for it.
func (m *Machine) AllocPID() ids.PID {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		pid := m.alloc.Next()
		if !m.taken[pid] {
			return pid
		}
		delete(m.taken, pid)
	}
}

// reserveLocked records pid as used, if the allocator has yet to pass it.
func (m *Machine) reserveLocked(pid ids.PID) {
	if pid > m.alloc.Passed() {
		m.taken[pid] = true
	}
}

// Attach registers h as pid's delivery handler without spawning a process
// for it, and reserves pid so AllocPID never issues it. The engine's AID
// table attaches every assumption it hosts this way; Detach undoes the
// registration but keeps the reservation (PIDs are never reused).
func (m *Machine) Attach(pid ids.PID, h transport.Handler) {
	m.mu.Lock()
	m.reserveLocked(pid)
	m.mu.Unlock()
	m.net.Register(pid, h)
}

// Detach removes an attached pid's handler; later deliveries to it are
// dead letters, exactly as for an exited process.
func (m *Machine) Detach(pid ids.PID) { m.net.Unregister(pid) }

func (m *Machine) spawn(pid ids.PID, body Body) (*Proc, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("vpm: spawn on closed machine")
	}
	if _, taken := m.procs[pid]; taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("vpm: spawn at %s: pid already live", pid)
	}
	m.reserveLocked(pid)
	p := &Proc{
		pid:     pid,
		box:     mailbox.NewCounted(&m.pending),
		machine: m,
		done:    make(chan struct{}),
	}
	m.procs[p.pid] = p
	m.wg.Add(1)
	m.mu.Unlock()

	m.net.Register(p.pid, p.deliver)

	go func() {
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				if m.OnPanic != nil {
					m.OnPanic(p.pid, r, stack)
				} else {
					fmt.Fprintf(os.Stderr, "vpm: process %s body panicked: %v\n%s", p.pid, r, stack)
				}
			}
			m.mu.Lock()
			if p.retired == nil {
				m.net.Unregister(p.pid)
			}
			delete(m.procs, p.pid)
			m.mu.Unlock()
			p.box.Close()
			close(p.done)
			m.wg.Done()
		}()
		body(p)
	}()
	return p, nil
}

// Lookup returns the live process with the given PID, or nil.
func (m *Machine) Lookup(pid ids.PID) *Proc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.procs[pid]
}

// Kill closes pid's mailbox, causing its body to observe ErrClosed at the
// next Recv and exit. Killing an unknown PID is a no-op.
func (m *Machine) Kill(pid ids.PID) {
	m.mu.Lock()
	p := m.procs[pid]
	m.mu.Unlock()
	if p != nil {
		p.box.Close()
	}
}

// Shutdown closes every process mailbox and waits for all bodies to exit,
// then closes the transport.
func (m *Machine) Shutdown() {
	m.mu.Lock()
	m.closed = true
	procs := make([]*Proc, 0, len(m.procs))
	for _, p := range m.procs {
		procs = append(procs, p)
	}
	m.mu.Unlock()
	for _, p := range procs {
		p.box.Close()
	}
	m.wg.Wait()
	m.net.Close()
}

// PID returns the process identifier.
func (p *Proc) PID() ids.PID { return p.pid }

// deliver is the process's transport handler: it queues m, or, once
// Retire has closed the mailbox, hands it to the retired handler — a
// delivery that looked the mailbox up just before Retire replaced it
// still reaches the handler that answers for the process now.
func (p *Proc) deliver(m *msg.Message) {
	if !p.box.Offer(m) && p.retired != nil {
		p.retired(m)
	}
}

// Retire hands pid's deliveries to h for good: h replaces the mailbox as
// pid's transport handler, the process leaves the machine, and the
// mailbox closes, so the body drains what is already queued, sees
// mailbox.ErrClosed and exits. pid stays registered to h after the body
// exits. h, like any handler, must not block.
func (p *Proc) Retire(h transport.Handler) {
	m := p.machine
	m.mu.Lock()
	p.retired = h // written before Close: deliver reads it after a refused Offer
	m.net.Register(p.pid, h)
	delete(m.procs, p.pid)
	m.mu.Unlock()
	p.box.Close()
}

// Handled tells the machine the body has finished handling one message
// it received, so Machine.Pending stops counting it.
func (p *Proc) Handled() { p.machine.pending.Add(-1) }

// Done is closed when the process body has exited.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Send transmits m asynchronously. It stamps m.From with this process's
// PID if unset.
func (p *Proc) Send(m *msg.Message) {
	if m.From == ids.NilPID {
		m.From = p.pid
	}
	p.machine.net.Send(m)
}

// Recv blocks for the next message. It returns mailbox.ErrClosed once the
// process has been killed and its queue drained.
func (p *Proc) Recv() (*msg.Message, error) {
	return p.box.Recv()
}
