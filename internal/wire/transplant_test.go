package wire

import (
	"fmt"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// TestWatermarkModeMismatchRefused pins the handshake guard: a dialer
// advertising watermark-on must be refused by a watermark-off acceptor
// — the connection dies before helloAck, the acceptor counts a
// ModeRejects, and no sequenced message ever crosses. Mixing modes
// silently would let gated outputs on one node race ungated outputs on
// another (DESIGN.md §12).
func TestWatermarkModeMismatchRefused(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Watermark: WatermarkOn})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0", Watermark: WatermarkOff})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())

	delivered := make(chan *msg.Message, 1)
	bpid := PIDBase(1) + 1
	b.Register(bpid, func(m *msg.Message) { delivered <- m })
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "mixed"})

	// The dialer retries; every attempt dies at the acceptor's hello
	// check. Two rejects prove the refusal is persistent, not a races-
	// once artifact.
	waitFor(t, 10*time.Second, "the acceptor to refuse the mode mismatch", func() bool {
		return b.WireStats().ModeRejects >= 2
	})
	select {
	case m := <-delivered:
		t.Fatalf("message crossed a mode-mismatched link: %v", m)
	default:
	}
}

// TestWatermarkModeAgreementAndCompat pins the accepting half of the
// guard: equal modes connect, and an Unknown side (a pre-watermark
// build) is compatible with anything — the refusal is only for an
// explicit On/Off conflict.
func TestWatermarkModeAgreementAndCompat(t *testing.T) {
	cases := []struct {
		name           string
		dialer, accept WatermarkMode
	}{
		{"on-on", WatermarkOn, WatermarkOn},
		{"unknown-on", WatermarkUnknown, WatermarkOn},
		{"off-unknown", WatermarkOff, WatermarkUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Watermark: tc.dialer})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0", Watermark: tc.accept})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a.SetPeer(1, b.Addr())

			delivered := make(chan *msg.Message, 1)
			bpid := PIDBase(1) + 1
			b.Register(bpid, func(m *msg.Message) { delivered <- m })
			a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: tc.name})
			waitFor(t, 10*time.Second, fmt.Sprintf("delivery across %s", tc.name), func() bool {
				select {
				case <-delivered:
					return true
				default:
					return false
				}
			})
			if r := a.WireStats().ModeRejects + b.WireStats().ModeRejects; r != 0 {
				t.Fatalf("compatible modes counted %d rejects", r)
			}
		})
	}
}
