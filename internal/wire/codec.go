// Package wire is the real-network transport for HOPE: it carries the
// full message vocabulary of the paper's Table 1 (plus the executable
// extensions — Retract, Data, and the cycle-cut probes) over persistent
// TCP connections between OS processes, while preserving the two
// properties Algorithm 2 assumes of the PVM network layer: reliable
// delivery and per-pair FIFO ordering. See DESIGN.md § Transport.
//
// A deployment is a set of Nodes, one per OS process. Every node owns a
// disjoint PID namespace (PIDBase/NodeOf), so a PID is enough to route a
// message to its owning node; the engine stays unaware that some PIDs
// are remote.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
)

// codecVersion is the first byte of every encoded message; bump it when
// the layout changes so mixed-version deployments fail loudly instead of
// misparsing. Version 2 added the CRC32C frame trailer (see node.go).
// Version 3 appended the view-epoch uvarint after the aid field for
// ownership-routed adjudications. Version 4 added the binary payload
// form (flag 0x02, see payload.go). The encoder writes version 4 only;
// the decoder still accepts 2 (epoch 0) and 3, so WALs and fuzz corpora
// written before either bump replay.
const codecVersion = 4

// codecVersionNoEpoch is the oldest layout the decoder still reads: no
// epoch uvarint follows the aid field. (Version 3, between the two, is
// version 4 without the binary payload form.)
const codecVersionNoEpoch = 2

// Decode hard limits: a malformed or hostile length prefix must not make
// the decoder allocate unbounded memory or recurse without bound.
const (
	maxSetLen       = 1 << 20 // elements per IDO/Tag set
	maxPayloadLen   = 1 << 24 // bytes of encoded payload
	maxPayloadDepth = 4       // messages nested in payloads (a Nack echoing a Batch is 2)
)

// Payload forms: the byte that follows the tag set.
const (
	payloadAbsent = 0
	payloadGob    = 1 // len uvarint + gob(payloadEnvelope): types with no binary codec, and every byte written before version 4
	payloadBinary = 2 // type id uint8 + len uvarint + flat body (payload.go)
)

// payloadEnvelope wraps a payload so gob can encode the interface value
// (gob requires a struct around an `any` field).
type payloadEnvelope struct {
	V any
}

// encodeBuf is a pooled encode buffer. The send path encodes every
// outbound message into one, keeps it queued until the frame is
// acknowledged, then recycles it, so steady-state sends allocate
// nothing. The box (rather than a bare []byte) keeps Pool round trips
// allocation-free.
type encodeBuf struct{ b []byte }

// maxPooledEncodeBuf caps what the pool retains: a rare huge payload
// must not pin its buffer forever.
const maxPooledEncodeBuf = 64 << 10

var encodeBufPool = sync.Pool{New: func() any { return &encodeBuf{b: make([]byte, 0, 512)} }}

// getEncodeBuf returns an empty pooled encode buffer.
func getEncodeBuf() *encodeBuf {
	eb := encodeBufPool.Get().(*encodeBuf)
	eb.b = eb.b[:0]
	return eb
}

// putEncodeBuf recycles eb. The caller must no longer reference eb.b.
func putEncodeBuf(eb *encodeBuf) {
	if cap(eb.b) > maxPooledEncodeBuf {
		return
	}
	encodeBufPool.Put(eb)
}

// gobBufPool recycles the scratch buffer gob payload encoding renders
// into before it is length-prefixed and appended to the frame. The gob
// encoder itself cannot be pooled: each encoder emits its type
// descriptors once per stream, and every frame must be self-contained.
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// RegisterPayload makes a concrete payload type transmissible inside
// Data messages in the gob form. It must be called (on both ends, with
// the same types) before a message carrying that type is encoded or
// decoded; it wraps gob.Register, so registration is global and
// idempotent. A type that also has a binary codec
// (RegisterBinaryPayload) always encodes binary; its gob registration
// then only serves the decoder of frames written before the codec
// existed.
func RegisterPayload(v any) { gob.Register(v) }

func init() {
	// The gob names of the built-in payloads (all of which encode binary,
	// payload.go): frames and WALs written before version 4 carry them.
	RegisterPayload(int(0))
	RegisterPayload(int64(0))
	RegisterPayload(uint64(0))
	RegisterPayload(float64(0))
	RegisterPayload(string(""))
	RegisterPayload(bool(false))
	RegisterPayload([]byte(nil))
	RegisterPayload(&msg.Message{})
	RegisterPayload([]*msg.Message(nil))
}

// EncodeMessage renders m in the length-free binary wire layout:
//
//	version  uint8
//	kind     uint8
//	from,to  uvarint
//	iid      proc uvarint, seq uvarint, epoch uvarint
//	aid      uvarint
//	epoch    uvarint (routing view epoch; absent in version 2)
//	ido      count uvarint, then count uvarints
//	tag      count uvarint, then count uvarints
//	payload  0x00 (absent)
//	       | 0x01 + len uvarint + gob(payloadEnvelope)
//	       | 0x02 + type id uint8 + len uvarint + body   (version 4)
//
// A payload whose concrete type has a binary codec takes the 0x02 form;
// any other takes the gob form and must have been RegisterPayload'ed.
// Framing (the length prefix) is the connection's concern, not the
// codec's.
func EncodeMessage(m *msg.Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 64), m)
}

// AppendMessage appends m's encoding to buf and returns the result.
func AppendMessage(buf []byte, m *msg.Message) ([]byte, error) {
	return appendMessage(buf, m, 0)
}

// appendMessage encodes m at nesting level depth (0 = the frame's own
// message; a message inside a Nack or Batch payload is one deeper).
func appendMessage(buf []byte, m *msg.Message, depth int) ([]byte, error) {
	if !m.Kind.Valid() {
		return nil, fmt.Errorf("wire: encode: invalid kind %d", int(m.Kind))
	}
	buf = append(buf, codecVersion, byte(m.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.From))
	buf = binary.AppendUvarint(buf, uint64(m.To))
	buf = binary.AppendUvarint(buf, uint64(m.IID.Proc))
	buf = binary.AppendUvarint(buf, uint64(m.IID.Seq))
	buf = binary.AppendUvarint(buf, uint64(m.IID.Epoch))
	buf = binary.AppendUvarint(buf, uint64(m.AID))
	buf = binary.AppendUvarint(buf, m.Epoch)
	buf, err := appendAIDSet(buf, m.IDO)
	if err != nil {
		return nil, err
	}
	buf, err = appendAIDSet(buf, m.Tag)
	if err != nil {
		return nil, err
	}
	if m.Payload == nil {
		return append(buf, payloadAbsent), nil
	}
	if out, ok, err := appendBinaryPayload(buf, m.Payload, depth); ok || err != nil {
		return out, err
	}
	return appendGobPayload(buf, m.Payload)
}

// appendGobPayload is the fallback encoder, for payload types nobody
// gave a binary codec.
func appendGobPayload(buf []byte, v any) ([]byte, error) {
	pb := gobBufPool.Get().(*bytes.Buffer)
	pb.Reset()
	defer gobBufPool.Put(pb)
	if err := gob.NewEncoder(pb).Encode(payloadEnvelope{V: v}); err != nil {
		return nil, fmt.Errorf("wire: encode payload %T: %w", v, err)
	}
	if pb.Len() > maxPayloadLen {
		return nil, fmt.Errorf("wire: encode: payload %d bytes exceeds limit %d", pb.Len(), maxPayloadLen)
	}
	buf = append(buf, payloadGob)
	buf = binary.AppendUvarint(buf, uint64(pb.Len()))
	return append(buf, pb.Bytes()...), nil
}

func appendAIDSet(buf []byte, set []ids.AID) ([]byte, error) {
	if len(set) > maxSetLen {
		return nil, fmt.Errorf("wire: encode: AID set of %d exceeds limit %d", len(set), maxSetLen)
	}
	buf = binary.AppendUvarint(buf, uint64(len(set)))
	for _, a := range set {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	return buf, nil
}

// DecodeMessage parses one encoded message. The input must contain
// exactly one message: trailing bytes are an error, as each transport
// frame carries a single message. Decoding never panics on malformed
// input and never allocates more than the declared limits.
func DecodeMessage(data []byte) (*msg.Message, error) {
	d := Decoder{buf: data}
	m, err := d.message()
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: decode: %d trailing bytes", len(d.buf))
	}
	return m, nil
}

// message parses one message off the cursor, leaving what follows it.
func (d *Decoder) message() (*msg.Message, error) {
	ver, h, err := d.header()
	if err != nil {
		return nil, err
	}
	m := &msg.Message{Kind: h.Kind, From: h.From, To: h.To}
	proc, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	seq, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if seq > 0xFFFFFFFF {
		return nil, fmt.Errorf("wire: decode: interval seq %d overflows uint32", seq)
	}
	epoch, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if epoch > 0xFFFFFFFF {
		return nil, fmt.Errorf("wire: decode: interval epoch %d overflows uint32", epoch)
	}
	m.IID = ids.IntervalID{Proc: ids.PID(proc), Seq: uint32(seq), Epoch: uint32(epoch)}
	aidV, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	m.AID = ids.AID(aidV)
	if ver > codecVersionNoEpoch {
		if m.Epoch, err = d.Uvarint(); err != nil {
			return nil, err
		}
	}
	if m.IDO, err = d.aidSet(); err != nil {
		return nil, err
	}
	if m.Tag, err = d.aidSet(); err != nil {
		return nil, err
	}
	if m.Payload, err = d.payload(ver); err != nil {
		return nil, err
	}
	return m, nil
}

// payload parses the payload field of a version-ver message.
func (d *Decoder) payload(ver byte) (any, error) {
	flag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch flag {
	case payloadAbsent:
		return nil, nil
	case payloadGob:
		body, err := d.payloadBody()
		if err != nil {
			return nil, err
		}
		// The fallback decoder, and the reader of everything written
		// before version 4.
		var env payloadEnvelope
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
			return nil, fmt.Errorf("wire: decode payload: %w", err)
		}
		return env.V, nil
	case payloadBinary:
		if ver >= codecVersion {
			return d.binaryPayload()
		}
	}
	return nil, fmt.Errorf("wire: decode: bad payload flag %d in version %d", flag, ver)
}

// payloadBody takes a length-prefixed payload body off the cursor.
func (d *Decoder) payloadBody() ([]byte, error) {
	plen, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if plen > maxPayloadLen {
		return nil, fmt.Errorf("wire: decode: payload %d bytes exceeds limit %d", plen, maxPayloadLen)
	}
	return d.take(int(plen))
}

// Header is the fixed prefix of an encoded message: what a reader needs
// to classify a retained frame without decoding it.
type Header struct {
	Kind     msg.Kind
	From, To ids.PID
}

// PeekHeader parses only the leading version, kind, from and to fields
// of an encoded message — the same parse DecodeMessage starts with. It
// allocates nothing on success and never touches the payload, so the
// durable fold can pair sends with frames and classify retained bytes on
// the append path. ok is false when those fields are malformed
// (DecodeMessage would fail too); a true result says nothing about the
// bytes after them.
func PeekHeader(data []byte) (h Header, ok bool) {
	d := Decoder{buf: data}
	_, h, err := d.header()
	return h, err == nil
}

// Decoder is the one bounds-checked cursor over encoded bytes: the
// message layout, the header peek and every binary payload body are
// read through it. The exported methods are what a package's payload
// codec (RegisterBinaryPayload) reads its body with.
type Decoder struct {
	buf   []byte
	depth int // nesting level of the message being read
}

// header parses the version byte and the Header fields.
func (d *Decoder) header() (ver byte, h Header, err error) {
	if ver, err = d.byte(); err != nil {
		return 0, Header{}, err
	}
	if ver < codecVersionNoEpoch || ver > codecVersion {
		return 0, Header{}, fmt.Errorf("wire: decode: codec version %d, want %d..%d", ver, codecVersionNoEpoch, codecVersion)
	}
	kindB, err := d.byte()
	if err != nil {
		return 0, Header{}, err
	}
	h.Kind = msg.Kind(kindB)
	if !h.Kind.Valid() {
		return 0, Header{}, fmt.Errorf("wire: decode: invalid kind %d", kindB)
	}
	from, err := d.Uvarint()
	if err != nil {
		return 0, Header{}, err
	}
	to, err := d.Uvarint()
	if err != nil {
		return 0, Header{}, err
	}
	h.From, h.To = ids.PID(from), ids.PID(to)
	return ver, h, nil
}

func (d *Decoder) byte() (byte, error) {
	if len(d.buf) == 0 {
		return 0, fmt.Errorf("wire: decode: truncated")
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("wire: decode: bad uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// Varint reads one zigzag-encoded signed varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("wire: decode: bad varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// Int reads a varint that must fit the platform's int.
func (d *Decoder) Int() (int, error) {
	v, err := d.Varint()
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, fmt.Errorf("wire: decode: %d overflows int", v)
	}
	return int(v), nil
}

// Str reads a string written by AppendString. The result is a copy: it
// does not alias the frame buffer.
func (d *Decoder) Str() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", fmt.Errorf("wire: decode: truncated (%d of %d string bytes)", len(d.buf), n)
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// AppendString appends s as Decoder.Str reads it: length uvarint, bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf) {
		return nil, fmt.Errorf("wire: decode: truncated (%d of %d bytes)", len(d.buf), n)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *Decoder) aidSet() ([]ids.AID, error) {
	count, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > maxSetLen {
		return nil, fmt.Errorf("wire: decode: AID set of %d exceeds limit %d", count, maxSetLen)
	}
	set := make([]ids.AID, count)
	for i := range set {
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		set[i] = ids.AID(v)
	}
	return set, nil
}
