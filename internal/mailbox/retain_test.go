package mailbox

import (
	"runtime"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// collected reports whether the message put into the box by fill, and
// released by take, becomes unreachable while the box itself stays live.
// The garbage collector scans a slice's whole backing array, so a slot
// left populated behind the slice header keeps its message alive.
func collected(t *testing.T, fill func(b *Box) *msg.Message, take func(b *Box)) bool {
	t.Helper()
	b := New()
	gone := make(chan struct{})
	func() {
		m := fill(b)
		runtime.SetFinalizer(m, func(*msg.Message) { close(gone) })
	}()
	take(b)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-gone:
			runtime.KeepAlive(b)
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	runtime.KeepAlive(b)
	return false
}

// TestConsumedMessageUnreachable: once received (Recv, TryRecv) or purged,
// a message is not retained by the box, even while later messages keep
// the backing array live.
func TestConsumedMessageUnreachable(t *testing.T) {
	fill := func(b *Box) *msg.Message {
		m := mk(1)
		b.Put(m)
		b.Put(mk(2))
		return m
	}
	cases := map[string]struct {
		fill func(*Box) *msg.Message
		take func(*Box)
	}{
		"Recv": {fill, func(b *Box) {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
			}
		}},
		"TryRecv": {fill, func(b *Box) {
			if _, ok := b.TryRecv(); !ok {
				t.Error("TryRecv found nothing")
			}
		}},
		// Purge the tail: the kept prefix shares the array whose last
		// slot held the purged message.
		"Purge": {func(b *Box) *msg.Message {
			m := mk(2)
			b.Put(mk(1))
			b.Put(m)
			return m
		}, func(b *Box) {
			if n := b.Purge(func(m *msg.Message) bool { return m.Payload == 2 }); n != 1 {
				t.Errorf("purged %d, want 1", n)
			}
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if !collected(t, c.fill, c.take) {
				t.Fatal("consumed message still reachable from the box")
			}
		})
	}
}
