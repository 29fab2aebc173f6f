package wire

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// rawSender speaks the dialer's half of the connection protocol by hand,
// so a test can overlap two connections from one sender node frame by
// frame — the dying connection draining its tail while its replacement
// has already handshaken — which a real peer only does by coincidence.
type rawSender struct {
	t       *testing.T
	c       net.Conn
	codec   Node // frame reader/writer only
	scratch []byte
}

// dialRaw connects to n as node `from` and returns the connection with
// the resume point the acceptor reported.
func dialRaw(t *testing.T, n *Node, from int) (*rawSender, uint64) {
	t.Helper()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := &rawSender{t: t, c: c}
	hello := append([]byte{codecVersion}, seqPayload(uint64(from))...)
	if err := s.codec.writeFrame(c, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	ftype, body, err := s.codec.readFrame(c, &s.scratch)
	if err != nil || ftype != frameHelloAck {
		t.Fatalf("handshake: frame type %d, err %v", ftype, err)
	}
	resume, err := parseSeq(body)
	if err != nil {
		t.Fatal(err)
	}
	return s, resume
}

// send writes msg frames lo..hi in one TCP write, each carrying its own
// seq as the payload.
func (s *rawSender) send(lo, hi uint64) {
	s.t.Helper()
	var out bytes.Buffer
	for seq := lo; seq <= hi; seq++ {
		data, err := EncodeMessage(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: PIDBase(1) + 1, Payload: seq})
		if err != nil {
			s.t.Fatal(err)
		}
		if err := s.codec.writeMsgFrame(&out, seq, data); err != nil {
			s.t.Fatal(err)
		}
	}
	if _, err := s.c.Write(out.Bytes()); err != nil {
		s.t.Fatal(err)
	}
}

// awaitAck reads acks until one covers seq, failing at the deadline.
func (s *rawSender) awaitAck(seq uint64, within time.Duration) {
	s.t.Helper()
	s.c.SetReadDeadline(time.Now().Add(within))
	for {
		ftype, body, err := s.codec.readFrame(s.c, &s.scratch)
		if err != nil {
			s.t.Fatalf("no ack covering seq %d within %v: %v", seq, within, err)
		}
		if ftype != frameAck {
			continue
		}
		if acked, err := parseSeq(body); err == nil && acked >= seq {
			return
		}
	}
}

// TestReplacementConnectionAcksDiscardedDuplicates pins the ack
// watermark to the connection that wrote it. A sender's old connection
// can still be draining its buffered tail after the replacement has
// handshaken: the old one delivers those frames and acks them into a
// socket nobody reads any more, the replacement receives the same frames
// again as resends and discards them as duplicates. The replacement must
// still ack them — its own last ack is the handshake's resume point, not
// whatever the dead connection last wrote — or the sender keeps them
// queued until unrelated traffic happens to arrive.
func TestReplacementConnectionAcksDiscardedDuplicates(t *testing.T) {
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var delivered atomic.Int64
	b.Register(PIDBase(1)+1, func(*msg.Message) { delivered.Add(1) })

	const (
		prefix = 5
		tail   = prefix + ackEvery // the tail is one inline-ack batch
	)

	old, resume := dialRaw(t, b, 0)
	if resume != 0 {
		t.Fatalf("fresh receiver resumes at %d, want 0", resume)
	}
	old.send(1, prefix)
	old.awaitAck(prefix, 5*time.Second)

	// The replacement handshakes while the old connection is still open:
	// its resume point is the prefix, so the sender will resend the tail.
	repl, resume := dialRaw(t, b, 0)
	if resume != prefix {
		t.Fatalf("replacement resumes at %d, want %d", resume, prefix)
	}

	// The old connection's buffered tail arrives and is delivered and
	// acked there — the read loop acks inline after ackEvery frames, so
	// the old connection's ack is out before anything else can happen —
	// and then the connection dies.
	old.send(prefix+1, tail)
	old.awaitAck(tail, 5*time.Second)
	old.c.Close()

	// The sender, having seen resume == prefix, resends the tail on the
	// replacement; every frame is a duplicate and is discarded.
	repl.send(prefix+1, tail)
	waitFor(t, 5*time.Second, "the resent tail to be discarded", func() bool {
		return b.WireStats().Duplicates == tail-prefix
	})
	if got := delivered.Load(); got != tail {
		t.Fatalf("delivered %d messages, want exactly %d", got, tail)
	}

	// No further traffic: the idle flush alone must tell the sender the
	// tail is delivered, or its resend queue never drains.
	repl.awaitAck(tail, 50*ackFlushInterval)
}
