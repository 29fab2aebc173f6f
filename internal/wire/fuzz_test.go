package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
)

// rpcFrames are binary-form frames carrying the rpc vocabulary, which
// this package cannot import: the data frame perf/micro.go times, and a
// Nack echoing a Response. (The test binary links internal/rpc through
// the external tests, so its codecs are registered.)
var rpcFrames = []string{
	"04070789808080808040070329000000020b0c02200a07057072696e74000a00",
	"040c09070000000002000002081904070789808080808040070329000000020b0c0221030a0905",
}

// FuzzDecodeMessage feeds arbitrary bytes to the decoder: it must never
// panic or over-allocate, only return a message or an error. The seed
// corpus is every kind's encoding with empty and large IDO sets, every
// payload form (absent, gob, binary — scalars, rpc, nested messages)
// plus the malformed shapes the unit tests pin.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		if data, err := EncodeMessage(m); err == nil {
			f.Add(data)
		}
	}
	for _, h := range rpcFrames {
		data, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeMessage(data); err != nil {
			f.Fatalf("rpc seed frame no longer decodes: %v", err)
		}
		f.Add(data)
	}
	if bare, err := EncodeMessage(&msg.Message{Kind: msg.KindNack, From: 1, To: 2}); err == nil {
		f.Add(nestedEchoes(bare, maxPayloadDepth))
		f.Add(nestedEchoes(bare, maxPayloadDepth+1))
		f.Add(append(bare[:len(bare)-1:len(bare)-1], payloadBinary, 200, 1, 0))                // unknown type id
		f.Add(append(bare[:len(bare)-1:len(bare)-1], payloadBinary, payloadBatch, 2, 0xFF, 1)) // hostile batch count
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Add([]byte{codecVersion, byte(msg.KindGuess), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same message
		// (the codec has one canonical form per message value).
		out, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%#v)", err, m)
		}
		m2, err := DecodeMessage(out)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatalf("decode/encode/decode mismatch:\n%#v\n%#v", m, m2)
		}
	})
}

// FuzzPeekHeader pins the allocation-free header peek against the full
// decoder: on arbitrary bytes it must never panic, and whenever
// DecodeMessage accepts the input the peek must accept it too and agree
// on kind, from and to — the durable fold classifies retained frames by
// the peek alone. Seeded from the same frame corpus as FuzzDecodeMessage.
func FuzzPeekHeader(f *testing.F) {
	for _, m := range sampleMessages() {
		if data, err := EncodeMessage(m); err == nil {
			f.Add(data)
			old := append([]byte(nil), data...)
			old[0] = codecVersionNoEpoch // misparses past the header; the peek must not care
			f.Add(old)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Add([]byte{codecVersion, byte(msg.KindData), 0x80})
	f.Add([]byte{codecVersion, byte(msg.KindGuess), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := PeekHeader(data)
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("peek rejected a message the decoder accepts: %#v", m)
		}
		if h.Kind != m.Kind || h.From != m.From || h.To != m.To {
			t.Fatalf("peek %+v disagrees with decode kind=%v from=%v to=%v", h, m.Kind, m.From, m.To)
		}
	})
}

// FuzzFrameStream feeds arbitrary byte streams to the connection-level
// frame reader the way the batched pump produces them: many frames
// coalesced into one contiguous write. The reader must never panic,
// never allocate past the frame cap, and must round-trip every valid
// batch exactly. Seeds include multi-frame batches built by the real
// writer so the corpus always covers the coalesced path.
func FuzzFrameStream(f *testing.F) {
	// Seed: every sample message batched into a single stream, plus a
	// few truncated/corrupt variants.
	n := &Node{}
	var stream bytes.Buffer
	for i, m := range sampleMessages() {
		data, err := EncodeMessage(m)
		if err != nil {
			continue
		}
		if err := n.writeMsgFrame(&stream, uint64(i+1), data); err != nil {
			f.Fatal(err)
		}
	}
	full := stream.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])                  // truncated mid-frame
	f.Add(append([]byte{0, 0, 0, 0}, full...)) // zero-length frame up front
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})   // length prefix over the cap

	f.Fuzz(func(t *testing.T, data []byte) {
		n := &Node{}
		var scratch []byte
		r := bytes.NewReader(data)
		for {
			ftype, body, err := n.readFrame(r, &scratch)
			if err != nil {
				return // truncated or malformed stream: error, never panic
			}
			if ftype != frameMsg {
				continue
			}
			seq, nn := binary.Uvarint(body)
			if nn <= 0 {
				continue
			}
			m, err := DecodeMessage(body[nn:])
			if err != nil {
				continue
			}
			// A frame that decodes must survive a reframe/reread cycle
			// bit-exactly: the batched writer and the frame reader agree.
			reenc, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("decoded frame seq=%d failed to re-encode: %v", seq, err)
			}
			var rt bytes.Buffer
			if err := n.writeMsgFrame(&rt, seq, reenc); err != nil {
				t.Fatal(err)
			}
			var scratch2 []byte
			ftype2, body2, err := n.readFrame(bytes.NewReader(rt.Bytes()), &scratch2)
			if err != nil || ftype2 != frameMsg {
				t.Fatalf("reframed message failed to read back: type=%d err=%v", ftype2, err)
			}
			seq2, nn2 := binary.Uvarint(body2)
			if nn2 <= 0 || seq2 != seq {
				t.Fatalf("seq corrupted by reframe: got %d, want %d", seq2, seq)
			}
			m2, err := DecodeMessage(body2[nn2:])
			if err != nil || !messagesEqual(m, m2) {
				t.Fatalf("reframe round trip mismatch (err=%v):\n%#v\n%#v", err, m, m2)
			}
		}
	})
}

// FuzzRoundTrip builds structured messages from fuzzed fields and
// asserts exact round-trip through the codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint64(2), uint64(3), uint32(4), uint32(5), uint64(6), uint16(0), "payload", uint8(0))
	f.Add(uint8(7), uint64(1)<<63, uint64(1)<<48, uint64(0), uint32(0), uint32(0), uint64(0), uint16(2000), "", uint8(0))
	f.Add(uint8(11), uint64(9), uint64(9), uint64(9), uint32(9), uint32(9), uint64(9), uint16(1), "x", uint8(0))
	for ptype := uint8(1); ptype <= 8; ptype++ { // one seed per binary payload shape below
		f.Add(uint8(msg.KindData), uint64(1)<<63, uint64(2), uint64(3), uint32(4), uint32(5), ^uint64(0), uint16(2), "payload", ptype)
	}
	f.Add(uint8(msg.KindData), uint64(1), uint64(2), uint64(3), uint32(4), uint32(5), uint64(6), uint16(0), "", uint8(6)) // empty []byte
	f.Fuzz(func(t *testing.T, kind uint8, from, to, proc uint64, seq, epoch uint32, aid uint64, idoLen uint16, payload string, ptype uint8) {
		m := &msg.Message{
			Kind: msg.Kind(kind),
			From: ids.PID(from),
			To:   ids.PID(to),
			IID:  ids.IntervalID{Proc: ids.PID(proc), Seq: seq, Epoch: epoch},
			AID:  ids.AID(aid),
		}
		for i := 0; i < int(idoLen); i++ {
			m.IDO = append(m.IDO, ids.AID(uint64(i)*from+1))
			m.Tag = append(m.Tag, ids.AID(uint64(i)+to))
		}
		if payload != "" {
			m.Payload = payload
		}
		// The other binary payload shapes, their values drawn from the
		// fuzzed fields; a nested message is a copy of m as built so far.
		inner := *m
		switch ptype % 9 {
		case 1:
			m.Payload = int(int64(aid))
		case 2:
			m.Payload = int64(aid)
		case 3:
			m.Payload = aid
		case 4:
			m.Payload = math.Float64frombits(aid)
		case 5:
			m.Payload = seq%2 == 1
		case 6:
			m.Payload = []byte(payload)
		case 7:
			m.Payload = &inner
		case 8:
			m.Payload = []*msg.Message{&inner, &inner}
		}
		data, err := EncodeMessage(m)
		if err != nil {
			if m.Kind.Valid() {
				t.Fatalf("valid kind failed to encode: %v", err)
			}
			return
		}
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("decode of freshly encoded message failed: %v", err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	})
}
