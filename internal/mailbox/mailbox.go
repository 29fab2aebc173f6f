// Package mailbox implements the per-process message queue used by the
// virtual process machine and by the HOPE library's user-data queue.
//
// Beyond plain FIFO enqueue/dequeue it supports the two operations HOPE's
// rollback machinery needs: requeueing journalled messages at the front
// (so surviving messages are re-received in their original order after a
// rollback) and purging messages whose tags contain denied assumptions.
package mailbox

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/hope-dist/hope/internal/msg"
)

// ErrClosed is returned by Recv when the mailbox has been closed and no
// messages remain.
var ErrClosed = errors.New("mailbox: closed")

// ErrInterrupted is returned by Recv when the waiting receiver was
// interrupted (used to unwind a user process for rollback).
var ErrInterrupted = errors.New("mailbox: interrupted")

// Box is a FIFO queue of messages safe for concurrent use. The zero value
// is ready to use.
type Box struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []*msg.Message
	closed    bool
	interrupt bool
	count     *atomic.Int64 // nil, or bumped once per Put (NewCounted)
}

// New returns an empty mailbox.
func New() *Box {
	b := &Box{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// NewCounted returns an empty mailbox that adds one to c for every
// message Put enqueues, before a receiver can see the message. The
// receiver subtracts one when it has finished handling a message, so a
// c shared by many boxes counts the messages queued or in hand across
// all of them. Requeue and Purge do not count: a counted box is fed by
// Put alone.
func NewCounted(c *atomic.Int64) *Box {
	b := New()
	b.count = c
	return b
}

func (b *Box) lazyInit() {
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
}

// Put appends m to the queue. Messages put after Close are dropped.
func (b *Box) Put(m *msg.Message) { b.Offer(m) }

// Offer is Put reporting whether m was enqueued: false once the box is
// closed, in which case the caller still owns m.
func (b *Box) Offer(m *msg.Message) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyInit()
	if b.closed {
		return false
	}
	if b.count != nil {
		b.count.Add(1)
	}
	b.items = append(b.items, m)
	b.cond.Signal()
	return true
}

// Requeue pushes msgs to the *front* of the queue, preserving their slice
// order, so the first element of msgs is the next message received. Used
// after a rollback to re-deliver journalled messages that remain valid.
func (b *Box) Requeue(msgs []*msg.Message) {
	if len(msgs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyInit()
	if b.closed {
		return
	}
	combined := make([]*msg.Message, 0, len(msgs)+len(b.items))
	combined = append(combined, msgs...)
	combined = append(combined, b.items...)
	b.items = combined
	b.cond.Broadcast()
}

// Recv removes and returns the oldest message, blocking until one is
// available. It returns ErrClosed if the mailbox is closed and drained,
// and ErrInterrupted if Interrupt was called while waiting.
func (b *Box) Recv() (*msg.Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyInit()
	for {
		if b.interrupt {
			b.interrupt = false
			return nil, ErrInterrupted
		}
		if len(b.items) > 0 {
			return b.pop(), nil
		}
		if b.closed {
			return nil, ErrClosed
		}
		b.cond.Wait()
	}
}

// TryRecv removes and returns the oldest message without blocking. The
// second result reports whether a message was available.
func (b *Box) TryRecv() (*msg.Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return nil, false
	}
	return b.pop(), true
}

// pop removes the head of a non-empty queue. The vacated slot is cleared
// so the backing array does not keep a consumed message reachable for as
// long as the box lives.
func (b *Box) pop() *msg.Message {
	m := b.items[0]
	b.items[0] = nil
	b.items = b.items[1:]
	return m
}

// Interrupt wakes one pending Recv with ErrInterrupted. If no receiver is
// waiting, the next Recv call returns ErrInterrupted instead of blocking.
func (b *Box) Interrupt() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyInit()
	b.interrupt = true
	b.cond.Broadcast()
}

// Purge removes every queued message for which drop returns true and
// returns the number removed.
func (b *Box) Purge(drop func(*msg.Message) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.items[:0]
	removed := 0
	for _, m := range b.items {
		if drop(m) {
			removed++
			continue
		}
		kept = append(kept, m)
	}
	clear(b.items[len(kept):]) // the purged tail of the shared array
	b.items = kept
	return removed
}

// Len returns the number of queued messages.
func (b *Box) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Close marks the mailbox closed and wakes all waiting receivers. Queued
// messages may still be drained with Recv/TryRecv.
func (b *Box) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lazyInit()
	b.closed = true
	b.cond.Broadcast()
}
