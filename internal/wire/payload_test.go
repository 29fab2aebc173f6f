package wire_test

import (
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/wire"
)

// TestPayloadIDsStable pins the binary payload id table. Ids are wire
// and WAL protocol: a row may be added, never changed or removed — an id
// that meant one type in a frame on somebody's disk means it forever.
func TestPayloadIDsStable(t *testing.T) {
	want := map[uint8]string{
		1:  "int",
		2:  "int64",
		3:  "uint64",
		4:  "float64",
		5:  "string",
		6:  "bool",
		7:  "[]uint8",
		8:  "*msg.Message",
		9:  "[]*msg.Message",
		32: "rpc.Request",
		33: "rpc.Response",
	}
	if got := wire.PayloadTypes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("payload id table changed:\n got %v\nwant %v", got, want)
	}
}

// TestRPCPayloadRoundTrip round-trips the rpc vocabulary at its edges,
// alone and nested inside a Nack and a Batch.
func TestRPCPayloadRoundTrip(t *testing.T) {
	payloads := []any{
		rpc.Request{},
		rpc.Request{ReplyTo: ids.PID(math.MaxUint64), Method: rpc.MethodPrint, Arg: math.MinInt, Seq: math.MaxInt, CallID: math.MaxUint64},
		rpc.Request{Method: strings.Repeat("m", 64<<10), Arg: -1, Seq: -1},
		rpc.Response{},
		rpc.Response{Seq: math.MinInt, CallID: math.MaxUint64, Result: math.MaxInt},
		rpc.Response{Seq: -1, Result: -1},
	}
	for _, p := range payloads {
		data := msg.Data(7, 9, ids.IntervalID{Proc: 7, Seq: 1, Epoch: 1}, []ids.AID{3}, p)
		for _, m := range []*msg.Message{
			data,
			msg.Nack(9, 7, 2, data),
			msg.Batch(7, 9, 2, []*msg.Message{data, data}),
		} {
			enc, err := wire.EncodeMessage(m)
			if err != nil {
				t.Fatalf("encode %v: %v", m, err)
			}
			got, err := wire.DecodeMessage(enc)
			if err != nil {
				t.Fatalf("decode %v: %v", m, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
			}
		}
	}
}

// TestOldGobFramesStillDecode decodes frames recorded before the binary
// payload form existed — version 3, and version 2 with no epoch field —
// whose payloads are gob streams: the WALs and queued frames of an
// upgraded node are full of them.
func TestOldGobFramesStillDecode(t *testing.T) {
	const gobTail = "227f0301010f7061796c6f6164456e76656c6f706501ff800001010101560110000000"
	frames := []struct {
		name    string
		hex     string
		epoch   uint64
		payload any
	}{
		{"v3 rpc.Request", "03070709070329000600020b0c01b201" + gobTail + "79ff80012e6769746875622e636f6d2f686f70652d646973742f686f70652f696e7465726e616c2f7270632e52657175657374ff81030101075265717565737401ff8200010501075265706c79546f01060001064d6574686f64010c0001034172670104000103536571010400010643616c6c4944010600000014ff8210010701057072696e740103010a01630000",
			6, rpc.Request{ReplyTo: 7, Method: "print", Arg: -2, Seq: 5, CallID: 99}},
		{"v2 rpc.Request", "020707090703290000020b0c01b201" + gobTail + "79ff80012e6769746875622e636f6d2f686f70652d646973742f686f70652f696e7465726e616c2f7270632e52657175657374ff81030101075265717565737401ff8200010501075265706c79546f01060001064d6574686f64010c0001034172670104000103536571010400010643616c6c4944010600000014ff8210010701057072696e740103010a01630000",
			0, rpc.Request{ReplyTo: 7, Method: "print", Arg: -2, Seq: 5, CallID: 99}},
		{"v3 int", "03070709070329000600020b0c0130" + gobTail + "0cff800103696e740402005300", 6, int(-42)},
		{"v2 int", "020707090703290000020b0c0130" + gobTail + "0cff800103696e740402005300", 0, int(-42)},
		{"v3 string", "03070709070329000600020b0c0138" + gobTail + "14ff800106737472696e670c07000568656c6c6f00", 6, "hello"},
		{"v2 string", "020707090703290000020b0c0138" + gobTail + "14ff800106737472696e670c07000568656c6c6f00", 0, "hello"},
	}
	for _, f := range frames {
		data, err := hex.DecodeString(f.hex)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		want := msg.Data(7, 9, ids.IntervalID{Proc: 7, Seq: 3, Epoch: 41}, []ids.AID{11, 12}, f.payload)
		want.Epoch = f.epoch
		got, err := wire.DecodeMessage(data)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded to\n     %#v\nwant %#v", f.name, got, want)
		}
		// What it re-encodes to is the current form, and says the same.
		again, err := wire.EncodeMessage(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.name, err)
		}
		if len(again) >= len(data) {
			t.Errorf("%s: re-encoded to %d bytes, the gob frame was %d", f.name, len(again), len(data))
		}
		if got2, err := wire.DecodeMessage(again); err != nil || !reflect.DeepEqual(got2, want) {
			t.Errorf("%s: re-encoded frame decodes to %#v (err %v)", f.name, got2, err)
		}
	}
}

// microDataFrame is the data frame perf/micro.go times
// (wire.encode_data_*, wire.decode_data_*).
func microDataFrame() *msg.Message {
	from, to := wire.PIDBase(0)+7, wire.PIDBase(1)+9
	iid := ids.IntervalID{Proc: from, Seq: 3, Epoch: 41}
	x, y := ids.AID(wire.PIDBase(0)+11), ids.AID(wire.PIDBase(0)+12)
	return msg.Data(from, to, iid, []ids.AID{x, y}, rpc.Request{ReplyTo: from, Method: rpc.MethodPrint, Seq: 5})
}

// TestDataFrameCodecAllocs is the allocation net under the message
// path: encoding an RPC data frame into a reused buffer allocates
// nothing, decoding it allocates the message, its tag set, the boxed
// payload, the method string and the decoder — not a type engine.
func TestDataFrameCodecAllocs(t *testing.T) {
	m := microDataFrame()
	enc, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(enc))
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = wire.AppendMessage(buf[:0], m)
	}); n != 0 {
		t.Errorf("AppendMessage into a reused buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := wire.DecodeMessage(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("DecodeMessage: %v allocs, want ≤ 6", n)
	}
}

func BenchmarkCodecData(b *testing.B) {
	m := microDataFrame()
	enc, err := wire.EncodeMessage(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(enc))
		for b.Loop() {
			buf, _ = wire.AppendMessage(buf[:0], m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wire.DecodeMessage(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
