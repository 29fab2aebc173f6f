package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
)

// sampleMessages returns round-trip inputs covering every kind with
// every field shape the runtime produces: empty and large IDO/Tag sets,
// nil and typed payloads, zero and maximal identifiers.
func sampleMessages() []*msg.Message {
	bigSet := make([]ids.AID, 4096)
	for i := range bigSet {
		bigSet[i] = ids.AID(i*i + 1)
	}
	iid := ids.IntervalID{Proc: 3, Seq: 17, Epoch: 4}
	var out []*msg.Message
	for _, k := range msg.Kinds {
		out = append(out,
			&msg.Message{Kind: k, From: 1, To: 2},
			&msg.Message{Kind: k, From: 7, To: 9, IID: iid, AID: 12},
			&msg.Message{Kind: k, From: 7, To: 9, IID: iid, AID: 12, IDO: []ids.AID{5}},
			&msg.Message{Kind: k, From: 7, To: 9, IID: iid, AID: 12, IDO: bigSet, Tag: bigSet[:100]},
			&msg.Message{
				Kind: k,
				From: ids.PID(1<<63 + 12345),
				To:   ids.PID(1<<48 + 1),
				IID:  ids.IntervalID{Proc: 1<<48 + 1, Seq: 0xFFFFFFFF, Epoch: 0xFFFFFFFF},
				AID:  ids.AID(1<<52 + 9),
			},
		)
	}
	out = append(out,
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Tag: []ids.AID{3, 4}, Payload: "hello"},
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: int(42)},
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: uint64(1) << 60},
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: float64(3.25)},
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: true},
		&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: []byte{0, 1, 2, 255}},
	)
	// Messages inside payloads: a Nack echoing a Data message, and a Batch
	// whose members carry payloads of their own (one of them a Nack).
	echoed := &msg.Message{Kind: msg.KindData, From: 7, To: 9, IID: iid, Tag: []ids.AID{3}, Epoch: 2, Payload: "echoed"}
	out = append(out,
		msg.Nack(9, 7, 5, echoed),
		msg.Batch(7, 9, 5, []*msg.Message{
			{Kind: msg.KindGuess, From: 7, To: 9, IID: iid, AID: 12, Epoch: 5},
			{Kind: msg.KindData, From: 7, To: 9, Payload: int64(-1)},
			msg.Nack(9, 7, 5, echoed),
		}),
		msg.Batch(7, 9, 5, nil),
	)
	return out
}

// messagesEqual compares two messages treating nil and empty AID sets as
// the same (the codec does not distinguish them).
func messagesEqual(a, b *msg.Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.IID != b.IID || a.AID != b.AID || a.Epoch != b.Epoch {
		return false
	}
	setEq := func(x, y []ids.AID) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return setEq(a.IDO, b.IDO) && setEq(a.Tag, b.Tag) && payloadsEqual(a.Payload, b.Payload)
}

// payloadsEqual is reflect.DeepEqual, except that floats compare by bits
// (a NaN round-trips to itself), nested messages by messagesEqual, and a
// nil []byte equals an empty one (the codec does not distinguish them).
func payloadsEqual(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case *msg.Message:
		y, ok := b.(*msg.Message)
		return ok && messagesEqual(x, y)
	case []*msg.Message:
		y, ok := b.([]*msg.Message)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !messagesEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestCodecRoundTripEveryKind(t *testing.T) {
	for _, m := range sampleMessages() {
		data, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %v: %v", m, err)
		}
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("decode %v: %v", m, err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

// payloadField returns the tail of a current-version encoding that
// starts at its payload flag.
func payloadField(t *testing.T, data []byte) []byte {
	t.Helper()
	d := Decoder{buf: data}
	if _, _, err := d.header(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // iid proc, seq, epoch; aid; epoch
		if _, err := d.Uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // ido, tag
		if _, err := d.aidSet(); err != nil {
			t.Fatal(err)
		}
	}
	return d.buf
}

// TestBuiltinPayloadEdges round-trips every built-in binary payload
// type at its edges, and checks each took the binary form.
func TestBuiltinPayloadEdges(t *testing.T) {
	big := strings.Repeat("\x00héllo\xff", 64<<10/8)
	cases := []struct {
		name    string
		in      any
		wantID  byte
		wantLen int // body length, -1 = don't check
	}{
		{"int zero", int(0), payloadInt, 1},
		{"int negative", int(-1), payloadInt, 1},
		{"int min", math.MinInt, payloadInt, -1},
		{"int max", math.MaxInt, payloadInt, -1},
		{"int64 min", int64(math.MinInt64), payloadInt64, 10},
		{"int64 max", int64(math.MaxInt64), payloadInt64, 10},
		{"uint64 zero", uint64(0), payloadUint64, 1},
		{"uint64 max", uint64(math.MaxUint64), payloadUint64, 10},
		{"float zero", float64(0), payloadFloat64, 8},
		{"float negative zero", math.Copysign(0, -1), payloadFloat64, 8},
		{"float NaN", math.NaN(), payloadFloat64, 8},
		{"float NaN with payload bits", math.Float64frombits(0x7FF8_0000_DEAD_BEEF), payloadFloat64, 8},
		{"float +Inf", math.Inf(1), payloadFloat64, 8},
		{"float -Inf", math.Inf(-1), payloadFloat64, 8},
		{"float smallest", math.SmallestNonzeroFloat64, payloadFloat64, 8},
		{"string empty", "", payloadString, 0},
		{"string 64 KiB", big, payloadString, len(big)},
		{"bool false", false, payloadBool, 1},
		{"bool true", true, payloadBool, 1},
		{"bytes nil", []byte(nil), payloadBytes, 0},
		{"bytes empty", []byte{}, payloadBytes, 0}, // as under gob: empty decodes to nil
		{"bytes 64 KiB", []byte(big), payloadBytes, len(big)},
	}
	for _, tc := range cases {
		m := &msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: tc.in}
		data, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		pf := payloadField(t, data)
		if pf[0] != payloadBinary || pf[1] != tc.wantID {
			t.Errorf("%s: payload flag %d id %d, want flag %d id %d", tc.name, pf[0], pf[1], payloadBinary, tc.wantID)
		}
		if n, _ := binary.Uvarint(pf[2:]); tc.wantLen >= 0 && int(n) != tc.wantLen {
			t.Errorf("%s: body of %d bytes, want %d", tc.name, n, tc.wantLen)
		}
		got, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !payloadsEqual(tc.in, got.Payload) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, got.Payload, tc.in)
		}
		if b, ok := got.Payload.([]byte); ok && len(b) == 0 && b != nil {
			t.Errorf("%s: decoded an empty non-nil []byte, want nil", tc.name)
		}
	}
}

func TestCodecRoundTripRPCPayloads(t *testing.T) {
	type fakeReq struct {
		Method string
		Arg    int
		Seq    int
		CallID uint64
	}
	RegisterPayload(fakeReq{})
	m := &msg.Message{
		Kind: msg.KindData, From: 5, To: 6,
		IID:     ids.IntervalID{Proc: 5, Seq: 1, Epoch: 1},
		Tag:     []ids.AID{10, 11},
		Payload: fakeReq{Method: "print", Arg: 3, Seq: 9, CallID: 77},
	}
	data, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// fakeReq has no binary codec: it takes the gob form.
	if flag := payloadField(t, data)[0]; flag != payloadGob {
		t.Fatalf("payload flag %d, want the gob fallback %d", flag, payloadGob)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !messagesEqual(m, got) {
		t.Fatalf("struct payload mismatch: %#v vs %#v", m.Payload, got.Payload)
	}
}

func TestCodecRejects(t *testing.T) {
	valid, err := EncodeMessage(&msg.Message{Kind: msg.KindGuess, From: 1, To: 2, AID: 3})
	if err != nil {
		t.Fatal(err)
	}
	prefix := valid[:len(valid)-1] // valid minus its "absent" payload flag
	graft := func(field ...byte) []byte { return append(append([]byte{}, prefix...), field...) }
	overLen := binary.AppendUvarint(nil, maxPayloadLen+1)
	// Each malformed input with the reason it must be refused for; the
	// binary payloads are grafted onto a valid message.
	cases := []struct {
		name string
		data []byte
		why  string
	}{
		{"empty", nil, "truncated"},
		{"bad version", append([]byte{99}, valid[1:]...), "codec version 99"},
		{"bad kind", []byte{codecVersion, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0}, "invalid kind"},
		{"truncated", valid[:len(valid)-3], "bad uvarint"},
		{"trailing bytes", append(append([]byte{}, valid...), 1, 2, 3), "3 trailing bytes"},
		{"bad flag", graft(7), "bad payload flag 7"},
		{"unknown type id", graft(payloadBinary, 200, 1, 0), "unknown payload type id 200"},
		{"type id zero", graft(payloadBinary, 0, 0), "unknown payload type id 0"},
		{"body length past the frame", graft(payloadBinary, payloadString, 5, 'a', 'b'), "truncated (2 of 5 bytes)"},
		{"trailing bytes inside the body", graft(payloadBinary, payloadUint64, 2, 7, 7), "1 trailing bytes in uint64 payload"},
		{"body shorter than its value", graft(payloadBinary, payloadFloat64, 4, 0, 0, 0, 0), "truncated (4 of 8 bytes)"},
		{"empty int body", graft(payloadBinary, payloadInt, 0), "bad varint"},
		{"bool out of range", graft(payloadBinary, payloadBool, 1, 2), "bad bool"},
		{"length over maxPayloadLen", graft(append([]byte{payloadBinary, payloadBytes}, overLen...)...), "exceeds limit"},
		{"gob length over maxPayloadLen", graft(append([]byte{payloadGob}, overLen...)...), "exceeds limit"},
		{"batch count past its body", graft(payloadBinary, payloadBatch, 1, 9), "batch of 9 in 0 bytes"},
		{"binary form in a version 3 frame", append([]byte{3}, graft(payloadBinary, payloadBool, 1, 1)[1:]...), "bad payload flag 2 in version 3"},
		{"nesting past the bound", nestedEchoes(valid, maxPayloadDepth+1), "nested deeper than"},
	}
	for _, tc := range cases {
		if _, err := DecodeMessage(tc.data); err == nil {
			t.Errorf("%s: decode accepted malformed input", tc.name)
		} else if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: refused with %q, want the reason %q", tc.name, err, tc.why)
		}
	}
	// The same shapes just inside their limits decode.
	for name, data := range map[string][]byte{
		"bool":                 graft(payloadBinary, payloadBool, 1, 1),
		"nesting at the bound": nestedEchoes(valid, maxPayloadDepth),
	} {
		if _, err := DecodeMessage(data); err != nil {
			t.Errorf("%s: decode rejected valid input: %v", name, err)
		}
	}
	// Unencodable kind and oversized set must fail on the encode side.
	if _, err := EncodeMessage(&msg.Message{Kind: msg.Kind(99)}); err == nil {
		t.Error("encode accepted invalid kind")
	}
	huge := make([]ids.AID, maxSetLen+1)
	if _, err := EncodeMessage(&msg.Message{Kind: msg.KindAffirm, From: 1, To: 2, IDO: huge}); err == nil {
		t.Error("encode accepted oversized IDO set")
	}
	type unregistered struct{ X chan int }
	if _, err := EncodeMessage(&msg.Message{Kind: msg.KindData, From: 1, To: 2, Payload: unregistered{}}); err == nil {
		t.Error("encode accepted unencodable payload")
	}
	// The encoder refuses what the decoder would: nesting past the bound,
	// a nil message inside a payload, an invalid message inside a Batch.
	deep := &msg.Message{Kind: msg.KindGuess, From: 1, To: 2}
	for i := 0; i < maxPayloadDepth; i++ {
		deep = msg.Nack(2, 1, 0, deep)
	}
	if _, err := EncodeMessage(deep); err != nil {
		t.Errorf("encode rejected nesting at the bound: %v", err)
	}
	if _, err := EncodeMessage(msg.Nack(2, 1, 0, deep)); err == nil {
		t.Error("encode accepted nesting past the bound")
	}
	if _, err := EncodeMessage(&msg.Message{Kind: msg.KindNack, From: 1, To: 2, Payload: (*msg.Message)(nil)}); err == nil {
		t.Error("encode accepted a nil echoed message")
	}
	if _, err := EncodeMessage(msg.Batch(1, 2, 0, []*msg.Message{{Kind: msg.Kind(99)}})); err == nil {
		t.Error("encode accepted an invalid message inside a Batch")
	}
}

// nestedEchoes wraps the encoded, payload-free message inner in depth
// levels of message-payload (what depth nested Nacks encode to), built
// byte by byte so it can exceed what the encoder would write.
func nestedEchoes(inner []byte, depth int) []byte {
	prefix := inner[:len(inner)-1] // inner minus its "absent" flag
	out := inner
	for i := 0; i < depth; i++ {
		field := append([]byte{payloadBinary, payloadMessage}, binary.AppendUvarint(nil, uint64(len(out)))...)
		out = append(append(append([]byte{}, prefix...), field...), out...)
	}
	return out
}

// TestKindTableClosed pins the codec's kind range to msg.Kinds: adding a
// kind without extending the table (and the wire tests) must fail here.
func TestKindTableClosed(t *testing.T) {
	for _, k := range msg.Kinds {
		if !k.Valid() {
			t.Errorf("kind %d listed in msg.Kinds but not Valid", int(k))
		}
	}
	if msg.Kind(0).Valid() || msg.Kind(len(msg.Kinds)+1).Valid() {
		t.Error("Valid accepts kinds outside msg.Kinds")
	}
}
