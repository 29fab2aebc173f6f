package wire

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// oobRow is one out-of-band channel as a caller sees it: its send
// method and its NodeConfig field.
type oobRow struct {
	name string
	ch   int
	send func(n *Node, to int, payload []byte) bool
	hook func(cfg *NodeConfig) *Channel
}

var oobRows = [nChan]oobRow{
	{"gossip", chanGossip, (*Node).Gossip, func(c *NodeConfig) *Channel { return &c.Gossip }},
	{"stability", chanStability, (*Node).Stability, func(c *NodeConfig) *Channel { return &c.Stability }},
	{"transfer", chanTransfer, (*Node).Transfer, func(c *NodeConfig) *Channel { return &c.Transfer }},
	{"transplant", chanTransplant, (*Node).Transplant, func(c *NodeConfig) *Channel { return &c.Transplant }},
}

// TestOutOfBandChannels pins the out-of-band plane's contract on every
// channel (DESIGN.md §7, "Out-of-band channels"). With the peer's
// address not yet known, bound+k payloads on one channel keep the
// newest bound, count k drops and leave another channel's pending
// payload alone; once the address arrives, the peer's hook receives a
// copy of each, in order, and the acceptor's Reply comes back while
// the dialer's never does. The frames count in neither Inflight nor
// MsgSeqs. A send to self, an empty payload, a send to a dead peer and
// a send on a closed node are refused.
func TestOutOfBandChannels(t *testing.T) {
	for _, row := range oobRows {
		t.Run(row.name, func(t *testing.T) {
			other := oobRows[(row.ch+1)%nChan]
			sa, sb, sOther := newGossipSink(), newGossipSink(), newGossipSink()
			acfg := NodeConfig{ID: 0, Listen: "127.0.0.1:0"}
			*row.hook(&acfg) = Channel{OnPayload: sa.onPayload, Reply: func(int) []byte { return []byte("loop") }}
			a, err := NewNode(acfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			bcfg := NodeConfig{ID: 1, Listen: "127.0.0.1:0"}
			*row.hook(&bcfg) = Channel{OnPayload: sb.onPayload, Reply: func(int) []byte { return []byte("reply-" + row.name) }}
			*other.hook(&bcfg) = Channel{OnPayload: sOther.onPayload}
			b, err := NewNode(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			// The peer is unreachable until SetPeer: everything queues.
			bound, k := chanBound[row.ch], 3
			var want [][]byte
			for i := 0; i < bound+k; i++ {
				payload := []byte(fmt.Sprintf("%s-%d", row.name, i))
				if !row.send(a, 1, payload) {
					t.Fatalf("payload %d refused toward a live peer", i)
				}
				payload[0] ^= 0xff // the queue holds a copy, not the caller's buffer
				if i >= k {
					want = append(want, []byte(fmt.Sprintf("%s-%d", row.name, i)))
				}
			}
			if !other.send(a, 1, []byte("other")) {
				t.Fatalf("%s payload refused", other.name)
			}
			ws := a.WireStats()
			if got := ws.Channels[row.ch].Drops; got != uint64(k) {
				t.Fatalf("drops = %d, want %d", got, k)
			}
			if got := ws.Channels[other.ch].Drops; got != 0 {
				t.Fatalf("%s drops = %d, want 0", other.name, got)
			}

			a.SetPeer(1, b.Addr())
			waitFor(t, 10*time.Second, "the newest payloads to reach the peer hook", func() bool {
				return sb.count(0) >= bound && sOther.count(0) >= 1
			})
			waitFor(t, 10*time.Second, "the acceptor's replies", func() bool { return sa.count(1) >= bound })
			sb.mu.Lock()
			got := sb.got[0]
			sb.mu.Unlock()
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
				}
			}
			if got := sOther.last(0); string(got) != "other" {
				t.Fatalf("%s payload = %q, want %q", other.name, got, "other")
			}
			if got := sa.last(1); string(got) != "reply-"+row.name {
				t.Fatalf("reply = %q", got)
			}

			// One sequenced message: the stream's seqs count it alone.
			bpid := PIDBase(1) + 1
			b.Register(bpid, func(*msg.Message) {})
			a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: 1})
			a.Drain()
			if sent, _ := a.MsgSeqs(); sent[1] != 1 {
				t.Fatalf("sent seq toward the peer = %d, want 1", sent[1])
			}
			if _, delivered := b.MsgSeqs(); delivered[0] != 1 {
				t.Fatalf("delivered seq from the sender = %d, want 1", delivered[0])
			}
			if n := a.Inflight() + b.Inflight(); n != 0 {
				t.Fatalf("out-of-band frames counted as inflight: %d", n)
			}
			wa, wb := a.WireStats().Channels[row.ch], b.WireStats().Channels[row.ch]
			if wa.Sent != uint64(bound) || wb.Recv != uint64(bound) || wb.Sent != uint64(bound) || wa.Recv != uint64(bound) {
				t.Fatalf("counters: dialer %+v, acceptor %+v, want %d each way", wa, wb, bound)
			}
			if n := sb.count(0); n != bound {
				t.Fatalf("peer hook received %d payloads, want %d (the dialer answered a reply)", n, bound)
			}

			if row.send(a, 0, []byte("x")) {
				t.Fatal("accepted a self-addressed payload")
			}
			if row.send(a, 1, nil) {
				t.Fatal("accepted an empty payload")
			}
			a.DeclarePeerDead(1)
			if row.send(a, 1, []byte("x")) {
				t.Fatal("accepted a payload toward a dead peer")
			}
			c, err := NewNode(NodeConfig{ID: 2, Listen: "127.0.0.1:0", Peers: map[int]string{1: b.Addr()}})
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			if row.send(c, 1, []byte("x")) {
				t.Fatal("accepted a payload on a closed node")
			}
		})
	}
}
